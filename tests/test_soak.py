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

import pytest
from config_cube import Cell, check

from repro.core.reporting import rss_kb
from repro.exp.results import _CSV_TOTAL_COLUMNS, round_row, round_totals
from repro.exp.spec import canonical_json

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "bench_scale.py",
)
_spec = importlib.util.spec_from_file_location("bench_scale", _SCRIPT)
bench_scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_scale)


# -- round_row / CSV schema ---------------------------------------------------
def test_round_row_carries_epoch_scale_columns():
    ledger = Cell(seed=3).build()
    report = ledger.run_round()
    row = round_row(report)
    assert row["rss_peak_kb"] == 0  # sample_rss off: deterministic zero
    assert row["reports_streamed"] == 1
    assert "rss_peak_kb" in _CSV_TOTAL_COLUMNS
    assert "reports_streamed" in _CSV_TOTAL_COLUMNS


def test_aggregator_totals_include_epoch_scale_columns():
    ledger = Cell(seed=3).build()
    totals = round_totals([round_row(ledger.run_round()) for _ in range(3)])
    assert totals["rounds"] == 3
    assert totals["reports_streamed"] == 3
    assert totals["rss_peak_kb"] == 0
    # A run with no queue ages still totals a float age (artifacts print 0.0).
    assert canonical_json(round_totals([])["tx_age_max"]) == "0.0"


def test_sample_rss_populates_report_field():
    ledger = Cell(seed=3).build(sample_rss=True)
    report = ledger.run_round()
    if rss_kb() > 0:  # procfs available (Linux CI)
        assert report.rss_peak_kb > 0
    else:  # no procfs: the field degrades to the deterministic zero
        assert report.rss_peak_kb == 0


# -- streaming JSONL emission, retention and pruning (tests/config_cube.py) --
def test_jsonl_stream_matches_in_memory_rows():
    """The streamed file is row-for-row byte-identical to what the legacy
    in-memory run flattens (``check``), and the streamed rows total the same."""
    want, run = check(Cell(seed=3, rounds=5), report_retention=1)  # stream-and-drop
    assert len(run.ledger.reports) == 1  # bounded in-memory tail
    assert [json.loads(line)["round"] for line in run.streamed] == [1, 2, 3, 4, 5]
    assert canonical_json(
        round_totals([json.loads(line) for line in run.streamed])
    ) == canonical_json(round_totals([json.loads(row) for row in want.rows]))


def test_report_retention_bounds_list_without_changing_stream():
    _, run = check(Cell(seed=3, rounds=6), report_retention=2)
    assert len(run.ledger.reports) == 2
    assert run.ledger.reports_streamed == 6
    # run() still returns every report; only the retained tail is bounded.
    assert [r.round_number for r in run.reports] == [1, 2, 3, 4, 5, 6]
    assert [r.reports_streamed for r in run.ledger.reports] == [5, 6]


def test_chain_pruning_is_content_neutral():
    """A retention-windowed chain emits byte-identical rows, head, length
    and transaction totals to the unbounded run (``check``)."""
    _, run = check(Cell(seed=3, rounds=8), chain_retention=3)
    assert len(run.ledger.chain.blocks) == 3  # only the retained suffix
    assert run.ledger.chain.pruned_blocks == 5
    assert run.ledger.chain.verify()


def test_invariants_hold_on_pruned_chain():
    """The incremental checker keeps working across the pruning frontier
    (``check`` runs it)."""
    check(Cell(seed=3, spent_retention=128, rounds=8), chain_retention=2)


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
    """The script's child entry in-process on the smallest shape its sizing
    rule allows, so it cannot rot unnoticed; that rule on the whole curve; and
    every gate tripping on rows that violate it."""
    row = bench_scale.measure_point("cycledger", 2)
    assert set(row) == {
        "backend", "n", "m", "wall_s", "wall_s_raw", "messages", "us_per_msg",
        "rss_mib", "gc_s", "gen2_passes", "packed", "msgs_per_node",
        "bytes_per_node", "sim_round_latency_s",
    }
    assert 0 <= row["gc_s"] < row["wall_s"] and row["gen2_passes"] >= 0
    assert (row["backend"], row["n"], row["m"]) == ("cycledger", 72, 2)
    assert row["messages"] > 0 and row["wall_s"] > 0 and row["us_per_msg"] > 0
    assert row["packed"] > 0 and row["msgs_per_node"] == row["messages"] / 72
    assert row["bytes_per_node"] > 0 and row["sim_round_latency_s"] > 0
    for m in bench_scale.CURVE:  # ProtocolParams validates divisibility
        params = bench_scale.sized(m)
        assert (params.m, params.referee_size, params.n) == (m, 8, 32 * m + 8)

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

    # The curve committed before the referee committee was fixed (|C_R| = m,
    # n = 32·m): messages per node climb 2.5 %, then 9.4 % per doubling of m.
    committed = [
        dict(row, m=m, n=32 * m, messages=msgs, msgs_per_node=msgs / (32 * m),
             wall_s=wall, packed=m * 8.4, sim_round_latency_s=92.5)
        for m, msgs, wall in ((8, 79676, 0.40), (16, 170468, 0.98), (32, 363969, 2.48),
                              (64, 746113, 6.15), (128, 1632430, 17.49))
    ]
    assert bench_scale.failures({"scale": committed, "soak": soak}) == [
        "cycledger: msgs_per_node is not flat from m=64 to m=128: 1.094x > 1.05x"]
    flat = [dict(r, msgs_per_node=380.0) for r in committed]
    assert bench_scale.failures({"scale": flat, "soak": soak}) == []
    assert bench_scale.throughput_exponent(flat) == pytest.approx((1.0, 1.0))
    late = flat[:4] + [dict(flat[4], sim_round_latency_s=92.5 * 1.06)]
    assert bench_scale.failures({"scale": late, "soak": soak}) == [
        "cycledger: round latency is not flat in n (max / min): 1.060x > 1.05x"]
    sublinear = [dict(r, packed=r["n"] ** 0.5) for r in flat]
    (problem,) = bench_scale.failures({"scale": sublinear, "soak": soak})
    assert problem.startswith("§III-D throughput is not quasi-linear in n: packed ~ n^0.50")
