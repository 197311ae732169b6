"""tools/lint.py: the tree passes, and every row of the table bites: a line it
forbids, put in the row's first path in a copy of the tree, fails the run
naming the rule and ``path:line``."""

from __future__ import annotations

import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import lint  # noqa: E402

#: One line each rule forbids, put in its first row's first path.
BITES = {
    "No collector tuning in the library": "gc.disable()",
    "No per-member handler factories in the library": "def make_on_vote(member):",
    "No second fault-injection path in the library": "driver = PolicyDriver(params)",
    "No networkx or SciPy on the simulation path": "import scipy",
    "No memo or option that buys nothing": "store = ReputationStore(pks)",
    "One MAC primitive": "tag = hmac.digest(key, data, 'sha256')",
    "One draw path": "amount = rng.integers(1, 10)",
    "One judgement per shard view": "ok = view.validate(tx)",
    "No per-entry insert in the UTXO listing": "keys.insert(index, key)",
    "One UTXO writer": "view.apply_transaction(tx)",
    "Ledger records stay exact tuples": "TxInput = namedtuple('TxInput', 'txid index')",
    "One record per admitted transaction": "self._effects[txid] = (tx, entry)",
    "One oracle per claim": "from reference_impls import NaiveWorkloadGenerator",
    "A formula is not its own check": "bad = rng.hypergeometric(good, evil, size)",
    "One run record, one sandbox builder": "world = build_multi_sandbox(m=2)",
    "One run driver in the CLI": "ledger = create_backend(name, params)",
    "One quorum rule": "needed = size // 2 + 1",
    "One semi-commitment rule": "ok = semi_commitment(members) == committed",
    "The decision reference imports no decision code": "from repro.core.consensus import quorum",
    "One audit rule for every vote round": "from repro.core.intra import _audit_round",
    "Wall clock only in the trace sink and the sweep runner": "start = time.perf_counter()",
    "One sweep grid": "spec = ExperimentSpec(adversary_grid=[0.0, 0.2])",
    "IDA chunks are one fan-out": "for index in range(chunks):",
    "Only Algorithm 3 tallies a fan-out": "net.multicast(sender, members, message, tally=tally)",
    "One fabric story": "def _route_story(net):",
    "One latency model": "at = now + base * (1.0 - jitter * u)",
    "One pin tool": "python tools/gen_largen_fixture.py",
    "One Table I": "from repro.baselines import ALL_MODELS",
    "No negated command in a CI step": "          ! grep -n stale README.md",
}

#: A line for each further row of a rule written over several: rule, row, line.
MORE = [
    ("One UTXO writer", 1, "saved = view.snapshot()"),
    ("Ledger records stay exact tuples", 1, "class TxInput(tuple):"),
    ("One run driver in the CLI", 1, "ledger = CycLedger(params)"),
    ("One quorum rule", 1, "class _proxy:"),
    ("One quorum rule", 2, "threshold = size // 2"),
    ("One latency model", 1, "delay = float(block.item(0))"),
]

CASES = [(name, 0, line) for name, line in BITES.items()] + MORE


def rows_of(name):
    return tuple(rule for rule in lint.RULES if rule.name == name)


@pytest.fixture(scope="module")
def copy(tmp_path_factory):
    """Every top-level path a rule scans, copied once for the module."""
    root = tmp_path_factory.mktemp("tree")
    for top in sorted({path.split("/")[0] for rule in lint.RULES
                       for path in rule.paths.split()}):
        source = lint.ROOT / top
        if source.is_dir():
            shutil.copytree(source, root / top,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(source, root / top)
    return root


@pytest.fixture
def tree(copy, monkeypatch):
    """``seed(path, line)`` puts ``line`` in ``path`` of the copy (a new file
    in a directory, the first match of a glob) and returns ``path:line``;
    ``delete(path)`` removes a file.  Both are undone after the test."""
    monkeypatch.setattr(lint, "ROOT", copy)
    before = {}

    def keep(file):
        before.setdefault(file, file.read_bytes() if file.exists() else None)

    def seed(path, line):
        file = sorted(copy.glob(path))[0] if "*" in path else copy / path
        file = file / "lint_bite.py" if file.is_dir() else file
        keep(file)
        file.parent.mkdir(parents=True, exist_ok=True)
        text = file.read_text() if file.exists() else ""
        text += "\n" if text and not text.endswith("\n") else ""
        file.write_text(text + line + "\n")
        number = text.count("\n") + 1
        return f"{file.relative_to(copy).as_posix()}:{number}"

    def delete(path):
        keep(copy / path)
        (copy / path).unlink()

    yield seed, delete
    for file, data in before.items():
        if data is None:
            file.unlink()
        else:
            file.write_bytes(data)


def test_the_tree_passes(capsys):
    assert lint.run() == 0
    assert capsys.readouterr().out == f"lint: all {len(BITES)} rules hold\n"


def test_every_rule_has_a_bite_and_every_row_is_bitten():
    assert list(BITES) == list(dict.fromkeys(rule.name for rule in lint.RULES))
    assert sorted((name, row) for name, row, _ in CASES) == sorted(
        (name, row) for name in BITES for row in range(len(rows_of(name)))
    )


@pytest.mark.parametrize("name, row, line", CASES,
                         ids=[f"{name}[{row}]" for name, row, _ in CASES])
def test_a_forbidden_line_fails_its_rule(tree, capsys, name, row, line):
    seed, _ = tree
    where = seed(rows_of(name)[row].paths.split()[0], line)
    assert lint.run(rows_of(name)) == 1
    out = capsys.readouterr().out
    assert f"{name}: {where}: {line.strip()}\n" in out
    assert out.endswith(f"lint: 1 of 1 rules fail: {name}\n")
    assert any(problem.startswith(f"{where}: ") for problem in lint.problems(rows_of(name)[row]))


@pytest.mark.parametrize("name, path", [
    ("One draw path", "src/repro/ledger/workload.py"),
    ("No negated command in a CI step", ".github/workflows/ci.yml"),
])
def test_a_missing_path_fails_its_rule(tree, capsys, name, path):
    _, delete = tree
    delete(path)
    assert lint.run(rows_of(name)) == 1
    scanned = rows_of(name)[0].paths.split()[0]
    assert f"{name}: {scanned}: no such file or directory\n" in capsys.readouterr().out


def test_every_failing_rule_is_reported_in_one_run(tree, capsys):
    seed, _ = tree
    first = seed("src/repro", BITES["No collector tuning in the library"])
    second = seed(".github/workflows/ci.yml", BITES["No negated command in a CI step"])
    seed("src/repro/__pycache__/stale.py", BITES["One MAC primitive"])
    assert lint.run() == 1
    out = capsys.readouterr().out
    assert "__pycache__" not in out
    assert f"No collector tuning in the library: {first}: gc.disable()\n" in out
    assert f"No negated command in a CI step: {second}: ! grep" in out
    assert out.endswith(
        f"lint: 2 of {len(BITES)} rules fail: No collector tuning in the library; "
        "No negated command in a CI step\n"
    )
