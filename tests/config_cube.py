"""The run-equality cube: every "these two runs are the same run" check.

A :class:`Cell` is what a run decides from, on one small shape (n = 24,
m = 2, λ = 2, |C_R| = 6, ``ProtocolParams``' own workload ratios) that a
cell may override.  :func:`check` runs a cell on neutral axes, which must
not change what it decides (§III-E's overlap, chain pruning, a bounded
report list streamed to JSONL, a trace sink, a checkpoint split), under the
``InvariantChecker`` catalogue, and holds it to :func:`reference`, the
cell's uninterrupted run, memoised per process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
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
from repro.exp.results import JsonlReportWriter, collect_result, round_row
from repro.exp.spec import canonical_json
from repro.ledger.checkpoint import capture_checkpoint, load_checkpoint
from repro.ledger.checkpoint import restore_checkpoint, save_checkpoint
from repro.nodes.adversary import AdversaryConfig
from repro.scenarios import SCENARIO_PRESETS

SMALL = dict(n=24, m=2, lam=2, referee_size=6, users_per_shard=12, tx_per_committee=4)
POISSON = (("arrival_process", "poisson"), ("arrival_rate", 14.0), ("mempool_max_age", 2))
TIMELINE = ("timeline_start", "timeline_end")  # the columns only overlap may move


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


def assert_pinned(fx: dict) -> View:
    """A pinned run: each row's pinned columns and phase times, and the final
    chain and reputation, are the fixture's."""
    shape, adversary = dict(fx["params"]), fx["adversary"] or {"fraction": 0.0}
    assert SMALL.keys() <= shape.keys()  # the fixture's params alone decide the run
    got = reference(Cell(
        fx["backend"], fraction=adversary["fraction"], seed=shape.pop("seed"),
        rounds=fx["rounds"], shape=tuple(sorted(shape.items())),
    ))
    rows = [json.loads(row) for row in got.rows]
    pinned = [{key: row[key] for key in want} for row, want in zip(rows, fx["rows"])]
    assert len(rows) == len(fx["rows"])
    assert canonical_json(pinned) == canonical_json(fx["rows"])
    assert [row["phase_sim_times"] for row in rows] == fx["phase_sim_times"]
    final, chain = fx["final"], json.loads(got.record)["chain"]
    assert (chain["head"], chain["length"], chain["total_transactions"]) == (
        final["chain_head"], final["chain_length"], final["total_packed"]
    )
    assert dict(sorted(got.reputation)) == final["reputation"]
    return got
