"""The run-equality cube: every "these two runs are the same run" check.

A :class:`Cell` is what a run decides from, on one small shape (n = 24,
m = 2, λ = 2, |C_R| = 6, ``ProtocolParams``' own workload ratios) that a
cell may override.  :func:`check` runs a cell on neutral axes, which must
not change what it decides (§III-E's overlap, chain pruning, a bounded
report list streamed to JSONL, a trace sink, a checkpoint split), under the
``InvariantChecker`` catalogue, and holds it to :func:`reference`, the
cell's uninterrupted run, memoised per process.

The pinned runs live in ``tests/fixtures/pinned_runs.json``, each entry its
inputs beside its outputs: :func:`pinned` rebuilds an entry from its inputs
and :func:`assert_pinned` holds it to the file, value by value.
``tools/pin.py`` writes the file and checks it with the same functions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

from repro.analysis.invariants import InvariantChecker
from repro.backends import create_backend
from repro.core.config import ProtocolParams
from repro.core.trace import TraceSink
from repro.exp import ExperimentSpec, run_sweep
from repro.exp.results import JsonlReportWriter, collect_result, round_row
from repro.exp.spec import canonical_json
from repro.ledger.checkpoint import capture_checkpoint, load_checkpoint
from repro.ledger.checkpoint import restore_checkpoint, save_checkpoint
from repro.nodes.adversary import AdversaryConfig
from repro.scenarios import SCENARIO_PRESETS, Scenario

SMALL = dict(n=24, m=2, lam=2, referee_size=6, users_per_shard=12, tx_per_committee=4)
POISSON = (("arrival_process", "poisson"), ("arrival_rate", 14.0), ("mempool_max_age", 2))
TIMELINE = ("timeline_start", "timeline_end")  # the columns only overlap may move
#: Every pinned run and the pinned sweep: ``tools/pin.py`` writes and checks it.
PINNED = os.path.join(os.path.dirname(__file__), "fixtures", "pinned_runs.json")
PINNED_INPUTS = ("backend", "params", "adversary", "scenario", "rounds")


@dataclass(frozen=True)
class Cell:
    """``arrival`` and ``shape`` are ``ProtocolParams`` items; ``()`` is the
    legacy feed and the small shape."""

    backend: str = "cycledger"
    scenario: str | None = None
    fraction: float = 0.0
    arrival: tuple = ()
    spent_retention: int = 0
    seed: int = 0
    rounds: int = 4
    shape: tuple = ()

    def params(self, **neutral: Any) -> ProtocolParams:
        return ProtocolParams(**{
            **SMALL, **dict(self.shape), **dict(self.arrival),
            "spent_retention": self.spent_retention, "seed": self.seed, **neutral,
        })

    def build(self, **neutral: Any) -> Any:
        return create_backend(
            self.backend,
            self.params(**neutral),
            adversary=AdversaryConfig(fraction=self.fraction) if self.fraction else None,
            scenario=SCENARIO_PRESETS[self.scenario] if self.scenario else None,
        )


@dataclass(frozen=True)
class View:
    """What a run decided: its canonical-JSON rows (``phase_sim_times`` is a
    column), recovery times, and the state it ended in.  ``record`` is the
    run record bar its rows: Table II's cumulative cells, the per-node table
    (reputation, reward, corruption) and the chain (head, length, packed)."""

    rows: tuple
    recovery_times: tuple
    reputation: tuple
    log: tuple
    record: str
    utxos: tuple


def view_of(ledger: Any, reports: list) -> View:
    return View(
        tuple(canonical_json(round_row(r)) for r in reports),
        tuple(r.recovery_times for r in reports),
        tuple(ledger.reputation.items()),
        tuple(ledger.scenario_driver.log) if ledger.scenario_driver else (),
        canonical_json(collect_result(ledger, (), {}, "").to_dict()),
        tuple(sorted(ledger.global_utxos)),
    )


@functools.cache
def reference(cell: Cell) -> View:
    ledger = cell.build()
    return view_of(ledger, ledger.run(cell.rounds))


def _rows(rows, drop: tuple) -> list[str]:
    return [
        canonical_json({k: v for k, v in json.loads(row).items() if k not in drop})
        for row in rows
    ]


def assert_same_run(want: View, got: View, split: int = 0, drop: tuple = ()) -> None:
    """``got`` is ``want`` from round ``split + 1`` on, bar ``drop``'s columns."""
    assert _rows(got.rows, drop) == _rows(want.rows[split:], drop)
    assert got.recovery_times == want.recovery_times[split:]
    rest = dict(rows=(), recovery_times=())
    assert dataclasses.replace(got, **rest) == dataclasses.replace(want, **rest)


def _watch(ledger, checker, report_retention, sink, trace) -> InvariantChecker:
    checker.install(ledger)
    if report_retention:
        ledger.report_retention, ledger.report_sink = report_retention, sink
    if trace is not None:
        TraceSink(trace).install(ledger)
    return checker


def check(cell: Cell, *, overlap="none", chain_retention=0, report_retention=None,
          trace=False, split=None, via="memory", donor_runs_on=False):
    """Run ``cell`` on the neutral axes given, assert it is the reference run
    and return ``(reference view, variant)``.

    ``report_retention`` streams every row to a JSONL file too; ``split``
    resumes from a checkpoint taken after that round, ``via`` "memory" or
    "file", and with ``donor_runs_on`` the donor runs to the end between the
    capture and the restore.  Only another ``overlap`` may move the timeline
    columns."""
    want = reference(cell)
    drop = TIMELINE if overlap != cell.params().overlap else ()
    out, traced = io.StringIO() if trace else None, ""
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        path = os.path.join(tmp, "rows.jsonl")
        sink = report_retention and stack.enter_context(JsonlReportWriter(path))
        ledger = cell.build(overlap=overlap, chain_retention=chain_retention)
        checker = _watch(ledger, InvariantChecker(), report_retention, sink, out)
        if split is not None:
            first, saved = ledger.run(split), via == "file" and os.path.join(tmp, "ckpt")
            state = save_checkpoint(ledger, saved) if saved else capture_checkpoint(ledger)
            if trace:  # the donor's sink keeps writing to the old stream
                traced, out = out.getvalue(), io.StringIO()
            if donor_runs_on:
                ledger.report_sink = None
                rest = ledger.run(cell.rounds - split)
                checker.check_final(ledger)
                assert_same_run(want, view_of(ledger, first + rest), drop=drop)
            ledger = load_checkpoint(saved) if saved else restore_checkpoint(state)
            checker = _watch(ledger, InvariantChecker(), report_retention, sink, out)
        reports = ledger.run(cell.rounds - (split or 0))
        checker.check_final(ledger)
        streamed = ()
        if sink:
            sink.close()
            with open(sink.path) as fh:
                streamed = tuple(line.rstrip("\n") for line in fh)
            assert _rows(streamed, drop) == _rows(want.rows, drop)
    variant = SimpleNamespace(
        view=view_of(ledger, reports), ledger=ledger, reports=reports,
        trace=traced + (out.getvalue() if trace else ""), streamed=streamed,
    )
    assert_same_run(want, variant.view, split or 0, drop)
    return want, variant


def assert_prefix(cell: Cell) -> None:
    """A scenario cell's rows before its first event's start round are the
    scenario-free cell's rows."""
    events = SCENARIO_PRESETS[cell.scenario].events
    start = min(getattr(e, "start_round", getattr(e, "round", None)) for e in events)
    before = min(start - 1, cell.rounds)
    plain = dataclasses.replace(cell, scenario=None, rounds=before)
    assert reference(cell).rows[:before] == (reference(plain).rows if before else ())


def load_pinned(path: str = PINNED) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@functools.cache
def _outputs(inputs: str) -> str:
    entry = json.loads(inputs)
    if "spec" in entry:  # the sweep: its JSON (bar the version-mixed hash) and CSV
        outcome = run_sweep(ExperimentSpec(**entry["spec"]), workers=1)
        payload = json.loads(outcome.json_bytes())
        del payload["spec_hash"]
        with tempfile.TemporaryDirectory() as tmp:
            outcome.write_csv(os.path.join(tmp, "sweep.csv"))
            with open(os.path.join(tmp, "sweep.csv"), "rb") as fh:
                csv = fh.read()
        artifact = (canonical_json(payload) + "\n").encode()
        return canonical_json({
            "json_sha256_no_spec_hash": hashlib.sha256(artifact).hexdigest(),
            "csv_sha256": hashlib.sha256(csv).hexdigest(),
        })
    adversary, scenario = entry["adversary"], entry["scenario"]
    ledger = create_backend(
        entry["backend"],
        ProtocolParams(**entry["params"]),
        adversary=AdversaryConfig(**adversary) if adversary else None,
        scenario=Scenario.from_dict(scenario) if scenario else None,
    )
    reports = ledger.run(entry["rounds"])
    return canonical_json({
        "rows": [round_row(r) for r in reports],
        "log": ledger.scenario_driver.log if ledger.scenario_driver else [],
        "final": {
            "chain_head": ledger.chain.head.hash.hex(),
            "chain_length": len(ledger.chain),
            "total_packed": ledger.total_packed(),
            "reputation": ledger.reputation,
        },
    })


def pinned(entry: dict) -> dict:
    """``entry``'s inputs beside what they give now, memoised per process
    on the inputs: a run's rows (``round_row``), driver log and final chain
    and reputation, or the sweep's two artifact digests."""
    keys = ("spec",) if "spec" in entry else PINNED_INPUTS
    inputs = {key: entry[key] for key in keys}
    return {**inputs, **json.loads(_outputs(canonical_json(inputs)))}


def repin(fixture: dict) -> dict:
    """Every entry of ``fixture`` rebuilt from its inputs."""
    runs = {name: pinned(entry) for name, entry in fixture["runs"].items()}
    return {"runs": runs, "sweep": pinned(fixture["sweep"])}


def first_difference(want: Any, got: Any, path: str) -> str | None:
    """The first path at which ``got`` is not the pinned ``want``, as
    ``path: got != want``, or ``None``."""
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path}: {len(got)} items != {len(want)}"
        pairs = [(f"{path}[{i}]", w, g) for i, (w, g) in enumerate(zip(want, got))]
    elif isinstance(want, dict) and isinstance(got, dict):
        odd = sorted(want.keys() ^ got.keys())
        if odd:
            where = "pinned, but not produced" if odd[0] in want else "produced, but not pinned"
            return f"{path}.{odd[0]}".lstrip(".") + f": {where}"
        pairs = [(f"{path}.{k}".lstrip("."), want[k], got[k]) for k in sorted(want)]
    else:
        same = type(want) is type(got) and want == got
        return None if same else f"{path}: {got!r} != {want!r}"
    return next(filter(None, (first_difference(w, g, at) for at, w, g in pairs)), None)


def assert_pinned(name: str) -> dict:
    """The pinned entry ``name`` (``sweep``, or a key of ``runs``) is what its
    inputs give now, in every value; returns the rebuilt entry."""
    fixture = load_pinned()
    want = fixture["sweep"] if name == "sweep" else fixture["runs"][name]
    got = pinned(want)
    difference = first_difference(want, got, name)
    assert difference is None, difference
    return got
