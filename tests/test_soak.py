"""Bounded-memory soak machinery: streaming reports, pruning, RSS columns.

These are the fast structural tests behind the soak row of
``benchmarks/bench_scale.py``: every unbounded structure the soak loop
bounds (report list, chain bodies, spent-history) is asserted bounded here,
and every compaction is asserted *content-neutral* — the streamed/pruned
run emits byte-identical rows to the legacy unbounded run.
"""

from __future__ import annotations

import importlib.util
import json
import os

from repro.analysis.invariants import InvariantChecker
from repro.backends import create_backend
from repro.core.config import ProtocolParams
from repro.core.reporting import rss_kb
from repro.exp.results import (
    _CSV_TOTAL_COLUMNS,
    JsonlReportWriter,
    RoundAggregator,
    round_row,
)
from repro.exp.spec import canonical_json

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "bench_scale.py",
)
_spec = importlib.util.spec_from_file_location("bench_scale", _SCRIPT)
bench_scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_scale)


def _params(**overrides) -> ProtocolParams:
    base = dict(
        n=24,
        m=2,
        lam=2,
        referee_size=6,
        seed=3,
        users_per_shard=12,
        tx_per_committee=4,
    )
    base.update(overrides)
    return ProtocolParams(**base)


# -- round_row / CSV schema ---------------------------------------------------
def test_round_row_carries_epoch_scale_columns():
    ledger = create_backend("cycledger", _params())
    report = ledger.run_round()
    row = round_row(report)
    assert row["rss_peak_kb"] == 0  # sample_rss off: deterministic zero
    assert row["reports_streamed"] == 1
    assert "rss_peak_kb" in _CSV_TOTAL_COLUMNS
    assert "reports_streamed" in _CSV_TOTAL_COLUMNS


def test_aggregator_totals_include_epoch_scale_columns():
    ledger = create_backend("cycledger", _params())
    agg = RoundAggregator(keep_rows=False)
    for _ in range(3):
        agg.add(ledger.run_round())
    totals = agg.totals()
    assert totals["rounds"] == 3
    assert totals["reports_streamed"] == 3
    assert totals["rss_peak_kb"] == 0
    assert agg.rows is None  # keep_rows=False: O(1) memory


def test_sample_rss_populates_report_field():
    ledger = create_backend("cycledger", _params(sample_rss=True))
    report = ledger.run_round()
    if rss_kb() > 0:  # procfs available (Linux CI)
        assert report.rss_peak_kb > 0
    else:  # no procfs: the field degrades to the deterministic zero
        assert report.rss_peak_kb == 0


# -- streaming JSONL emission -------------------------------------------------
def test_jsonl_stream_matches_in_memory_rows(tmp_path):
    """The streamed file is row-for-row byte-identical to what the legacy
    in-memory run flattens, and single-pass totals agree."""
    legacy = create_backend("cycledger", _params())
    legacy.run(5)

    path = str(tmp_path / "rounds.jsonl")
    streamed = create_backend("cycledger", _params())
    streamed.report_retention = 1  # stream-and-drop
    with JsonlReportWriter(path) as writer:
        streamed.report_sink = writer
        agg = RoundAggregator(keep_rows=False)
        for _ in range(5):
            agg.add(streamed.run_round())
    assert writer.rows_written == 5
    assert len(streamed.reports) == 1  # bounded in-memory tail

    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    assert lines == [canonical_json(round_row(r)) for r in legacy.reports]
    assert [json.loads(line)["round"] for line in lines] == [1, 2, 3, 4, 5]

    legacy_agg = RoundAggregator()
    for report in legacy.reports:
        legacy_agg.add(report)
    assert agg.totals() == legacy_agg.totals()


def test_report_retention_bounds_list_without_changing_stream():
    bounded = create_backend("cycledger", _params())
    bounded.report_retention = 2
    reports = bounded.run(6)
    assert len(bounded.reports) == 2
    assert bounded.reports_streamed == 6
    # run() still returns every report; only the retained tail is bounded.
    assert [r.round_number for r in reports] == [1, 2, 3, 4, 5, 6]
    assert [r.reports_streamed for r in bounded.reports] == [5, 6]


# -- chain pruning ------------------------------------------------------------
def test_chain_pruning_is_content_neutral():
    """A retention-windowed chain emits byte-identical rows, head, length
    and transaction totals to the unbounded run."""
    full = create_backend("cycledger", _params())
    pruned = create_backend("cycledger", _params(chain_retention=3))
    full.run(8)
    pruned.run(8)
    assert [canonical_json(round_row(r)) for r in pruned.reports] == [
        canonical_json(round_row(r)) for r in full.reports
    ]
    assert pruned.chain.head.hash == full.chain.head.hash
    assert len(pruned.chain) == len(full.chain) == 8
    assert len(pruned.chain.blocks) == 3  # only the retained suffix
    assert pruned.chain.pruned_blocks == 5
    assert (
        pruned.chain.total_transactions() == full.chain.total_transactions()
    )
    assert pruned.chain.verify()


def test_invariants_hold_on_pruned_chain():
    """The incremental checker keeps working across the pruning frontier,
    including with the compacted spent-outpoint window."""
    ledger = create_backend(
        "cycledger", _params(chain_retention=2, spent_retention=128)
    )
    checker = InvariantChecker(spent_retention=4)
    checker.install(ledger)
    ledger.run(8)
    checker.assert_clean()
    assert checker.check_final(ledger) == []


# -- the scale-and-soak script itself ------------------------------------------
def test_soak_loop_bounds_every_structure():
    """A short soak through the script's real soak loop: reports dropped
    after emission, chain bodies pruned, row coherent.  (The RSS plateau
    gate itself needs a long horizon; the soak-smoke CI job and the full
    ``bench_scale.py`` run assert it.)"""
    ledger = bench_scale.soak_ledger()
    row = bench_scale.run_soak(
        ledger, rounds=12, reference_round=10**9, compact_every=5
    )
    assert row["plateau_ratio"] is None  # horizon too short for the gate
    assert row["rounds"] == 12
    assert row["round_ms_p50_first"] > 0 and row["round_ms_p50_last"] > 0
    assert row["reports_streamed"] == ledger.reports_streamed == 12
    assert len(ledger.reports) == 1
    assert len(ledger.chain) == 12
    assert len(ledger.chain.blocks) == ledger.params.chain_retention
    assert row["total_transactions"] == ledger.chain.total_transactions() > 0


def test_scale_point_row_and_gates():
    """The script's child entry in-process on one small point, so it cannot
    rot unnoticed; its sizing rule on the whole curve; and all three gates
    tripping on rows that violate them."""
    row = bench_scale.measure_point("cycledger", 64)
    assert set(row) == {
        "backend", "n", "m", "wall_s", "wall_s_raw", "messages", "us_per_msg",
        "rss_mib", "gc_s", "gen2_passes",
    }
    assert 0 <= row["gc_s"] < row["wall_s"] and row["gen2_passes"] >= 0
    assert (row["backend"], row["n"], row["m"]) == ("cycledger", 64, 4)
    assert row["messages"] > 0 and row["wall_s"] > 0 and row["us_per_msg"] > 0
    for n in bench_scale.CURVE:  # ProtocolParams validates divisibility
        params = bench_scale.sized(n)
        assert params.m == n // 32
        assert 24 <= (n - params.referee_size) // params.m <= 32

    soak = {"plateau_ratio": 1.2, "round_ms_p50_first": 80.0, "round_ms_p50_last": 112.0}
    assert bench_scale.failures({"scale": [row], "soak": soak}) == []
    falling = dict(row, n=128, wall_s=row["wall_s"] / 2)
    assert len(bench_scale.failures({"scale": [row, falling], "soak": soak})) == 1
    other = dict(falling, backend="rapidchain")  # curves never join across backends
    assert bench_scale.failures({"scale": [row, other], "soak": soak}) == []
    leaking = dict(soak, plateau_ratio=bench_scale.PLATEAU_LIMIT + 0.1)
    assert len(bench_scale.failures({"scale": [row], "soak": leaking})) == 1
    # the committed parent of this gate: 79.7 ms -> 237.9 ms over 2 000 rounds
    slowing = dict(soak, round_ms_p50_first=79.7, round_ms_p50_last=237.9)
    assert len(bench_scale.failures({"scale": [row], "soak": slowing})) == 1
    unsampled = dict(soak, plateau_ratio=None)  # horizon too short for the RSS gate
    assert bench_scale.failures({"scale": [row], "soak": unsampled}) == []
