"""CLI and ASCII plotting."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.plotting import ascii_bars, ascii_plot
from repro.cli import build_parser, main
from repro.nodes.behaviors import BEHAVIOR_REGISTRY

#: how an unknown-strategy error names the known ones
KNOWN = "known: " + ", ".join(sorted(BEHAVIOR_REGISTRY))
ROOT = Path(__file__).resolve().parent.parent


# -- plotting ------------------------------------------------------------------


def test_ascii_plot_basic():
    xs = np.arange(10)
    out = ascii_plot(xs, {"linear": xs * 2.0})
    assert "legend: * linear" in out
    assert out.count("\n") > 10
    assert "*" in out


def test_ascii_plot_multi_series_markers():
    xs = np.arange(5)
    out = ascii_plot(xs, {"a": xs + 1.0, "b": xs + 2.0})
    assert "* a" in out and "o b" in out


def test_ascii_plot_logy_drops_nonpositive():
    xs = np.arange(1, 6, dtype=float)
    ys = np.array([1e-3, 1e-2, 0.0, 1e-1, 1.0])
    out = ascii_plot(xs, {"s": ys}, logy=True)
    assert "(log10)" in out


def test_ascii_plot_validation():
    with pytest.raises(ValueError):
        ascii_plot([1.0], {"s": [1.0]})
    with pytest.raises(ValueError):
        ascii_plot([1.0, 2.0], {"s": [1.0]})


def test_ascii_plot_constant_series():
    out = ascii_plot([0.0, 1.0, 2.0], {"flat": [3.0, 3.0, 3.0]})
    assert "flat" in out


def test_ascii_bars():
    out = ascii_bars(["a", "bb"], [1.0, 2.0], title="T")
    assert out.startswith("T")
    assert "bb" in out and "#" in out


def test_ascii_bars_validation():
    with pytest.raises(ValueError):
        ascii_bars(["a"], [1.0, 2.0])
    with pytest.raises(ValueError):
        ascii_bars([], [])


def test_ascii_bars_zero_values():
    out = ascii_bars(["z"], [0.0])
    assert "z" in out


# -- CLI -------------------------------------------------------------------------


def test_parser_subcommands(capsys):
    import pytest

    parser = build_parser()
    args = parser.parse_args(["run", "--n", "48", "--m", "3"])
    assert args.n == 48 and args.command == "run"
    args = parser.parse_args(["failure", "--cmax", "100"])
    assert args.cmax == 100
    # The removed `bench` subcommand fails by argparse's own choice check.
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(["bench"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    # So do the removed policy flags: a policy is a scenario preset now.
    for argv in (
        ["scenario", "--policy", "censorship"],
        ["sweep", "--policy", "censorship"],
        ["sweep", "--policies", "none,censorship"],
        # ... and the overlap axis flag: it is `--grid overlap=...`.
        ["sweep", "--overlaps", "none"],
        # `run` is the one run driver: `scenario` and `backends` only list.
        ["scenario", "--preset", "churn"],
        ["scenario", "--list"],
        ["backends", "--run", "rapidchain"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_cli_gx(capsys):
    assert main(["gx"]) == 0
    out = capsys.readouterr().out
    assert "g(x)" in out


def test_cli_failure(capsys):
    assert main(["failure", "--cmin", "20", "--cmax", "80", "--step", "20"]) == 0
    out = capsys.readouterr().out
    assert "exact" in out and "(log10)" in out


def test_cli_table1(capsys):
    """The leader-attack column is the policy-compare sweep's packed ratio
    at seed 0 (BENCH_policies.json's values); Elastico has no backend."""
    assert main(["table1", "--m", "8", "--c", "100"]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines()}
    assert "n/a (analytic only)" in rows["Elastico"]
    measured = {name: rows[name].split()[-2] for name in
                ("CycLedger", "RapidChain", "OmniLedger")}
    assert measured == {"CycLedger": "1.00", "RapidChain": "0.20",
                        "OmniLedger": "0.20"}


def test_cli_run_small(capsys):
    code = main([
        "run", "--n", "36", "--m", "2", "--lam", "2", "--referee", "8",
        "--rounds", "1", "--users", "16", "--txs", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chain 1 blocks" in out and "valid=True" in out


def test_cli_run_flagless_is_library_default(tmp_path, capsys):
    import dataclasses
    import json

    from repro import ProtocolParams

    record = tmp_path / "run.json"
    assert main(["run", "--rounds", "1", "--json", str(record)]) == 0
    assert "backend 'cycledger', scenario 'none', 1 rounds" in (
        capsys.readouterr().out
    )
    point = json.loads(record.read_text())["point"]
    assert point["params"] == dataclasses.asdict(ProtocolParams())
    assert point["backend"] == "cycledger" and point["scenario"] is None


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["--adversary", "1.5"], "error: fraction must be in [0, 1]"),
        (["--leader-strategy", "nope"], "error: unknown leader strategy"),
        (["--scenario", "churn", "--n", "25"], "error: n - referee_size"),
        (["--scenario", "churn", "--adversary", "2"], "error: fraction"),
        (["--scenario", "nope"], "argument --scenario: invalid choice"),
        (["--backend", "nope"], "argument --backend: invalid choice"),
        (["--rounds", "0"], "argument --rounds: must be >= 1"),
        (["--rounds", "-1"], "argument --rounds: must be >= 1"),
        (["--checkpoint-every", "-1"], "argument --checkpoint-every: must"),
        (["--leader-strategy", "x"], f"error: unknown leader strategy 'x'; {KNOWN}"),
        (["--voter-strategy", "x"], f"error: unknown voter strategy 'x'; {KNOWN}"),
    ],
)
def test_cli_run_bad_input_exits_naming_it(argv, needle, tmp_path, capsys):
    """A bad value is a one-line `error: ...` naming the field or flag,
    never a traceback, and runs nothing (no checkpoint is written)."""
    with pytest.raises(SystemExit) as exit_info:
        main(["run", *argv, "--checkpoint-dir", str(tmp_path / "ck")])
    code = exit_info.value.code
    assert code == 2 or str(code).startswith("error: ")
    assert needle in f"{code}{capsys.readouterr().err}"
    assert not (tmp_path / "ck").exists()


def test_cli_scenario_list(capsys):
    assert main(["scenario"]) == 0
    out = capsys.readouterr().out
    assert "partition-halves" in out and "churn" in out
    # One roster: the four adversary-policy presets are listed with the rest.
    assert len(out.splitlines()) == 10 and "adaptive-corruption" in out


def test_cli_scenario_unknown_preset():
    import pytest

    with pytest.raises(SystemExit):
        main(["run", "--scenario", "no-such-scenario"])


def test_cli_scenario_repeated_preset_is_one_timeline(capsys):
    args = ["run", "--n", "24", "--m", "2", "--lam", "2", "--referee", "6",
            "--users", "12", "--txs", "4", "--rounds", "2", "--verbose"]
    assert main([*args, "--scenario", "latency-spike",
                 "--scenario", "adaptive-corruption"]) == 0
    out = capsys.readouterr().out
    assert "scenario 'latency-spike+adaptive-corruption'" in out
    assert "latency x4" in out and "leaderboard_corruption corrupts" in out
    with pytest.raises(SystemExit, match="at most one adversary policy"):
        main([*args, "--scenario", "censorship",
              "--scenario", "referee-eclipse"])


def test_cli_scenario_run_deterministic_json(tmp_path, capsys):
    args = [
        "run", "--scenario", "leader-crash", "--n", "24", "--m", "2",
        "--lam", "2", "--referee", "6", "--users", "12", "--txs", "4",
        "--rounds", "3", "--verbose",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main([*args, "--json", str(first)]) == 0
    out = capsys.readouterr().out
    assert "scenario 'leader-crash'" in out
    assert "crash leader-elect" in out
    assert main([*args, "--json", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


# -- CLI docs drift --------------------------------------------------------------


def _subcommands():
    return next(
        action for action in build_parser()._actions
        if hasattr(action, "choices") and action.choices
    ).choices


def stale_flags(paths):
    """(file name, subcommand, flag) for every ``--flag`` that a
    ``repro <subcommand> ...`` line in ``paths`` shows and that
    subcommand's parser does not accept."""
    flags = {
        name: {option for action in parser._actions
               for option in action.option_strings}
        for name, parser in _subcommands().items()
    }
    stale = []
    for path in paths:
        for line in path.read_text().replace("\\\n", " ").splitlines():
            match = re.search(r"\brepro (\w+)\b(.*)", line)
            if match and match.group(1) in flags:
                stale += [
                    (path.name, match.group(1), flag)
                    for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", match.group(2))
                    if flag not in flags[match.group(1)]
                ]
    return stale


def test_readme_command_table_documents_every_subcommand():
    readme = (ROOT / "README.md").read_text()
    assert [c for c in _subcommands() if f"`repro {c}`" not in readme] == []


def test_docs_show_only_flags_the_cli_has():
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    assert stale_flags(docs) == []


def test_a_doc_line_naming_a_flag_the_cli_lacks_is_stale(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "    repro run --n 24 --no-such-flag\n"
        "    repro sweep --grid m=2,3 \\\n      --workers 2 --bogus\n"
        "    repro table1 --m 4\n"
    )
    assert stale_flags([doc]) == [
        ("doc.md", "run", "--no-such-flag"), ("doc.md", "sweep", "--bogus"),
    ]
