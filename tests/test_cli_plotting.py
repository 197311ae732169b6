"""CLI and ASCII plotting."""

import numpy as np
import pytest

from repro.analysis.plotting import ascii_bars, ascii_plot
from repro.cli import build_parser, main


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
    assert main(["table1", "--m", "8", "--c", "100"]) == 0
    out = capsys.readouterr().out
    assert "CycLedger" in out and "RapidChain" in out


def test_cli_run_small(capsys):
    code = main([
        "run", "--n", "36", "--m", "2", "--lam", "2", "--referee", "8",
        "--rounds", "1", "--users", "16", "--txs", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chain 1 blocks" in out and "valid=True" in out


def test_cli_scenario_list(capsys):
    assert main(["scenario", "--list"]) == 0
    out = capsys.readouterr().out
    assert "partition-halves" in out and "churn" in out
    # One roster: the four adversary-policy presets are listed with the rest.
    assert len(out.splitlines()) == 10 and "adaptive-corruption" in out


def test_cli_scenario_unknown_preset():
    import pytest

    with pytest.raises(SystemExit):
        main(["scenario", "--preset", "no-such-scenario"])


def test_cli_scenario_repeated_preset_is_one_timeline(capsys):
    args = ["scenario", "--n", "24", "--m", "2", "--lam", "2", "--referee", "6",
            "--users", "12", "--txs", "4", "--rounds", "2", "--verbose"]
    assert main([*args, "--preset", "latency-spike",
                 "--preset", "adaptive-corruption"]) == 0
    out = capsys.readouterr().out
    assert "scenario 'latency-spike+adaptive-corruption'" in out
    assert "latency x4" in out and "leaderboard_corruption corrupts" in out
    with pytest.raises(SystemExit, match="at most one adversary policy"):
        main([*args, "--preset", "censorship", "--preset", "referee-eclipse"])


def test_cli_scenario_run_deterministic_json(tmp_path, capsys):
    args = [
        "scenario", "--preset", "leader-crash", "--n", "24", "--m", "2",
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
