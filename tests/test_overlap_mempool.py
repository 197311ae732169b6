"""Continuous-time round-overlap engine and the persistent mempool.

Three contracts, in increasing strictness:

1. **Legacy byte-identity** — with default params (``overlap=none``,
   legacy arrivals) every RoundReport field that existed before the
   refactor must match the pins byte-for-byte
   (``tests/fixtures/pinned_runs.json``, written by ``tools/pin.py``; first
   pinned at PR 4's HEAD, with values unmoved since).
2. **Overlap state identity** — ``overlap=semicommit`` re-times the
   timeline but must leave the final chain / UTXO set / reputation map
   byte-identical to ``overlap=none``, while reporting ≥ 10% lower
   end-to-end sim-time latency on the default compare spec.
3. **Mempool determinism** — identical seeds give identical
   arrival/packing/eviction order, whether a sweep runs serially or on
   process-pool workers.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from config_cube import Cell, assert_pinned, check
from reference_impls import EagerPublishWorkloadGenerator, by_home_shard

from repro.core.config import ProtocolParams
from repro.core.pipeline import (
    OVERLAP_NONE,
    OVERLAP_SEMICOMMIT,
    OverlapScheduler,
    Phase,
)
from repro.core.protocol import CycLedger
from repro.exp import ExperimentSpec, overlap_compare_spec, run_sweep
from repro.exp.results import write_csv
from repro.ledger.workload import TxMempool, WorkloadGenerator

DEFAULTISH = dict(
    n=48, m=4, lam=2, referee_size=8, seed=0, users_per_shard=24,
    tx_per_committee=6, cross_shard_ratio=0.3, invalid_ratio=0.1,
)
#: The >= 10 % pipelining gain is claimed on the default compare shape.
PIPELINED = Cell(
    fraction=0.2, rounds=8,
    shape=tuple((k, v) for k, v in DEFAULTISH.items() if k != "seed"),
)


def _noop(ctx):
    return None


# -- OverlapScheduler units --------------------------------------------------
def _synthetic_phases() -> tuple[Phase, ...]:
    """A miniature CycLedger-shaped pipeline: prefix, body, tail."""
    return (
        Phase("config", _noop, needs_prev=("selection",)),
        Phase("semicommit", _noop),
        Phase("intra", _noop, needs=("semicommit",), needs_prev=("block",)),
        Phase("selection", _noop),
        Phase("block", _noop),
    )


DURATIONS = {
    "config": 5.0, "semicommit": 5.0, "intra": 20.0,
    "selection": 10.0, "block": 30.0,
}
ROUND_TOTAL = sum(DURATIONS.values())  # 70


def test_scheduler_none_serializes_rounds():
    scheduler = OverlapScheduler(OVERLAP_NONE)
    phases = _synthetic_phases()
    first = scheduler.observe_round(1, phases, DURATIONS, ROUND_TOTAL)
    second = scheduler.observe_round(2, phases, DURATIONS, ROUND_TOTAL)
    assert (first.start, first.end) == (0.0, 70.0)
    assert (second.start, second.end) == (70.0, 140.0)
    # Phases chain back to back inside each round.
    assert [w.start for w in first.phases] == [0.0, 5.0, 10.0, 30.0, 40.0]
    assert scheduler.makespan == 140.0


def test_scheduler_semicommit_overlaps_prefix():
    scheduler = OverlapScheduler(OVERLAP_SEMICOMMIT)
    phases = _synthetic_phases()
    first = scheduler.observe_round(1, phases, DURATIONS, ROUND_TOTAL)
    second = scheduler.observe_round(2, phases, DURATIONS, ROUND_TOTAL)
    # Round 1 is dense: same spans as the serial schedule.
    assert (first.start, first.end) == (0.0, 70.0)
    by_name = {w.name: w for w in second.phases}
    # config(r2) starts at selection(r1).end = 40, not at block(r1).end = 70.
    assert by_name["config"].start == 40.0
    assert by_name["semicommit"].end == 50.0
    # intra(r2) still waits for block(r1): starts at 70, not 50.
    assert by_name["intra"].start == 70.0
    # The prefix (10 sim-time units) left the critical path entirely.
    assert second.end == 140.0 - 10.0
    assert scheduler.makespan == 130.0


def test_scheduler_rejects_unknown_mode():
    with pytest.raises(ValueError, match="overlap mode"):
        OverlapScheduler("both")
    with pytest.raises(ValueError, match="overlap mode"):
        ProtocolParams(overlap="both")


def test_scheduler_rejects_unknown_dependency_names():
    scheduler = OverlapScheduler(OVERLAP_SEMICOMMIT)
    typo = (
        Phase("config", _noop, needs_prev=("selction",)),  # typo'd
        Phase("selection", _noop),
    )
    with pytest.raises(ValueError, match="needs_prev 'selction'"):
        scheduler.observe_round(1, typo, {}, 0.0)
    forward = (
        Phase("a", _noop, needs=("b",)),  # b is not an earlier phase
        Phase("b", _noop),
    )
    with pytest.raises(ValueError, match="not an earlier phase"):
        OverlapScheduler(OVERLAP_NONE).observe_round(1, forward, {}, 0.0)


def test_default_pipeline_carries_dependency_annotations():
    params = ProtocolParams(n=24, m=2, lam=2, referee_size=6)
    phases = {p.name: p for p in CycLedger(params).pipeline}
    assert phases["config"].needs_prev == ("selection",)
    assert phases["intra"].needs_prev == ("block",)
    assert phases["intra"].needs == ("semicommit",)


# -- legacy byte-identity against the pre-refactor pins ---------------------
@pytest.mark.parametrize(
    "name", ["cycledger_default", "cycledger_small", "rapidchain_small"]
)
def test_overlap_none_matches_pre_refactor_fixture(name):
    rows = assert_pinned(name)["rows"]
    for row in rows:
        # At overlap=none each round's window spans its sim_time (up to float
        # re-association of base + sim_time; the cumulative end below is
        # exact), and legacy arrivals leave no standing queue.
        assert row["timeline_end"] - row["timeline_start"] == pytest.approx(
            row["sim_time"], rel=1e-9
        )
        assert row["queue_depth"] == 0 and row["tx_evicted"] == 0
    assert rows[-1]["timeline_end"] == sum(row["sim_time"] for row in rows)


# -- overlap=semicommit: identical state, lower latency ----------------------
def test_semicommit_identical_state_lower_latency():
    """Same rows, chain, reputation and rewards as overlap=none (``check``)
    but the timeline columns; the composed timeline is shorter."""
    none, semi = check(PIPELINED, overlap=OVERLAP_SEMICOMMIT)
    e2e_none = json.loads(none.rows[-1])["timeline_end"]
    assert max(r.timeline_end for r in semi.reports) <= 0.90 * e2e_none
    # Overlapped rounds start before their predecessor ends (true overlap,
    # not just a shorter total).
    assert any(
        later.timeline_start < earlier.timeline_end
        for earlier, later in zip(semi.reports, semi.reports[1:])
    )


def test_overlap_compare_preset_meets_gain_target():
    outcome = run_sweep(overlap_compare_spec(), workers=1)
    by_mode = {
        result.point["params"]["overlap"]: result
        for result in outcome.results
    }
    none, semi = by_mode["none"], by_mode["semicommit"]
    # Paired arms: identical ledger state, identical per-round clocks.
    assert none.chain["head"] == semi.chain["head"]
    assert [r["sim_time"] for r in none.per_round] == [
        r["sim_time"] for r in semi.per_round
    ]
    assert none.totals["e2e_sim_time"] == none.totals["sim_time"]
    assert semi.totals["e2e_sim_time"] <= 0.90 * none.totals["e2e_sim_time"]


# -- the persistent mempool --------------------------------------------------
def _generator(seed=7, m=2):
    return WorkloadGenerator(
        m=m, users_per_shard=16, rng=np.random.default_rng(seed)
    )


def test_mempool_legacy_matches_raw_generator():
    """The fixed-batch feed is the historical draw-a-batch, publish, roll
    back the unpacked model (the frozen eager-publish oracle)."""
    direct = EagerPublishWorkloadGenerator(
        m=2, users_per_shard=16, rng=np.random.default_rng(7)
    )
    pooled = TxMempool(_generator(), batch=20)
    for round_number in (1, 2, 3):
        want = direct.generate_batch(
            20, cross_shard_ratio=0.3, invalid_ratio=0.2
        )
        arrivals = pooled.admit(
            round_number, 0.0, cross_shard_ratio=0.3, invalid_ratio=0.2
        )
        assert arrivals == len(want)
        # offered() routes exactly like the direct by_home_shard oracle.
        assert [
            [t.tx.txid for t in shard] for shard in pooled.offered()
        ] == [
            [t.tx.txid for t in shard] for shard in by_home_shard(want, direct.m)
        ]
        packed = {t.tx.txid for t in want[::2]}
        direct.confirm_round(packed)
        stats = pooled.settle(packed, round_number, 1.0)
        assert (stats.depth, stats.evicted) == (0, 0)
        assert (pooled.depth, pooled.total_evicted) == (0, 0)
    # Identical RNG consumption and spend-tracking state afterwards.
    assert [
        t.tx.txid for t in direct.generate_batch(10)
    ] == [t.tx.txid for t in pooled.generator.generate_batch(10)]


def test_mempool_rejects_bad_configuration():
    with pytest.raises(ValueError, match="arrival process"):
        TxMempool(_generator(), process="burst")
    with pytest.raises(ValueError, match="positive rate"):
        TxMempool(_generator(), process="poisson", rate=0.0)
    with pytest.raises(ValueError, match=">= 0"):
        TxMempool(_generator(), capacity=-1)
    with pytest.raises(ValueError, match="legacy"):
        TxMempool(_generator(), capacity=100)  # silent no-op otherwise
    with pytest.raises(ValueError, match="arrival process"):
        ProtocolParams(arrival_process="burst")
    with pytest.raises(ValueError, match="arrival_rate"):
        ProtocolParams(arrival_process="poisson", arrival_rate=0.0)
    # Queue knobs are no-ops under legacy settlement (the queue clears
    # every round): reject them instead of silently measuring nothing.
    for knobs in (
        {"mempool_max_age": 2},
        {"mempool_capacity": 100},
        {"arrival_rate": 10.0},
    ):
        with pytest.raises(ValueError, match="legacy"):
            ProtocolParams(**knobs)


def test_mempool_poisson_fifo_age_and_ttl_eviction():
    pool = TxMempool(
        _generator(), process="poisson", rate=12.0, max_age_rounds=2
    )
    arrived = pool.admit(1, 0.0, cross_shard_ratio=0.0, invalid_ratio=0.0)
    assert arrived > 0 and pool.depth == arrived
    # Nothing packs: entries age, then expire after two full rounds.
    stats1 = pool.settle(set(), 1, 10.0)
    assert stats1.depth == arrived and stats1.evicted == 0
    assert stats1.age_max == 10.0 and stats1.age_mean == 10.0
    pool.admit(2, 10.0, 0.0, 0.0)
    stats2 = pool.settle(set(), 2, 25.0)
    assert stats2.evicted == 0  # round-1 arrivals are one round old
    pool.admit(3, 25.0, 0.0, 0.0)
    stats3 = pool.settle(set(), 3, 40.0)
    assert stats3.evicted == arrived  # the round-1 cohort hit the TTL
    assert pool.total_evicted == arrived
    # Eviction rolled their inputs back into the spendable pool: the
    # generator can still build valid transactions from them.
    assert all(
        e.arrived_round > 1 for e in pool.queue
    )


def test_mempool_capacity_backpressure_evicts_oldest():
    pool = TxMempool(
        _generator(seed=11), process="poisson", rate=15.0, capacity=10
    )
    pool.admit(1, 0.0, 0.0, 0.0)
    pool.admit(2, 5.0, 0.0, 0.0)
    stats = pool.settle(set(), 2, 9.0)
    assert stats.depth == 10
    assert pool.depth == 10
    # Survivors are the newest arrivals (oldest evicted first).
    assert [e.arrived_round for e in pool.queue] == sorted(
        e.arrived_round for e in pool.queue
    )
    if stats.evicted:
        assert min(e.arrived_at for e in pool.queue) >= 0.0


def test_poisson_backlog_drains_across_rounds():
    """A tx unpacked in round r stays queued and packs in a later round."""
    params = ProtocolParams(
        **{**DEFAULTISH, "seed": 3},
        arrival_process="poisson", arrival_rate=60.0, mempool_max_age=4,
    )
    ledger = CycLedger(params)
    reports = ledger.run(5)
    assert any(r.queue_depth > 0 for r in reports)  # standing queue exists
    assert any(r.tx_age_mean > 0 for r in reports)
    assert sum(r.submitted for r in reports) == ledger.mempool.total_admitted
    # Conservation: everything admitted is packed, still queued, or evicted.
    packed_total = sum(r.packed for r in reports)
    assert (
        ledger.mempool.total_admitted
        == packed_total + ledger.mempool.depth + ledger.mempool.total_evicted
    )
    # Arrivals vary round to round (a real rate process, not a constant).
    assert len({r.submitted for r in reports}) > 1


def test_mempool_identical_seeds_identical_order():
    """Same seed ⇒ same arrivals, packing and evictions, run twice."""
    arrival = (
        ("arrival_process", "poisson"), ("arrival_rate", 30.0),
        ("mempool_max_age", 2), ("mempool_capacity", 24),
    )
    _, again = check(Cell(seed=5, arrival=arrival))
    assert sum(r.tx_evicted for r in again.reports) > 0


def test_poisson_draws_never_spend_offchain_outputs():
    """Ground truth stays honest under sustained load.

    Created outputs are published only when the creating tx packs
    (``WorkloadGenerator.forget_txids``), so an intended-valid queued
    transaction always spends outputs that exist on-chain right now —
    committees reject it only for budget/cross-shard reasons, never
    because the generator chained off an unconfirmed parent.
    """
    params = ProtocolParams(
        **{**DEFAULTISH, "seed": 3},
        arrival_process="poisson", arrival_rate=60.0, mempool_max_age=2,
    )
    ledger = CycLedger(params)
    for _ in range(6):
        ledger.run_round()
        for entry in ledger.mempool.queue:
            if not entry.tagged.intended_valid:
                continue
            for outpoint in entry.tagged.tx.inputs:
                assert outpoint in ledger.global_utxos, (
                    "queued intended-valid tx spends an off-chain output"
                )


def test_deferred_spent_records_follow_packing():
    """Double-spend injection material is confirmed-spent inputs only.

    An input counts as "spent" (and so becomes a double-spend target)
    only once its transaction packs; merely-queued
    spends stay invisible, otherwise the injected defect would actually
    be valid against the chain's UTXO view.
    """
    pool = TxMempool(_generator(seed=21), process="poisson", rate=16.0)
    generator = pool.generator
    pool.admit(1, 0.0, cross_shard_ratio=0.0, invalid_ratio=0.0)
    assert generator._spent == []  # nothing confirmed yet
    queued = [e.tagged for e in pool.queue if e.tagged.intended_valid]
    packed = {t.tx.txid for t in queued[: len(queued) // 2]}
    pool.settle(packed, 1, 1.0)
    spent_outpoints = {outpoint for outpoint, _, _ in generator._spent}
    want = {
        outpoint for t in queued if t.tx.txid in packed for outpoint in t.tx.inputs
    }
    assert spent_outpoints == want


def test_eviction_does_not_duplicate_value():
    """TTL/capacity eviction returns inputs exactly once: the spendable
    pool never holds duplicate outpoints and its total value never
    exceeds the genesis endowment (fees only ever remove value)."""
    params = ProtocolParams(
        **{**DEFAULTISH, "seed": 9},
        arrival_process="poisson", arrival_rate=70.0,
        mempool_max_age=1, mempool_capacity=40,
    )
    ledger = CycLedger(params)
    genesis_total = sum(
        amount for _address, amount in ledger.workload.genesis_tx.outputs
    )
    for _ in range(5):
        ledger.run_round()
        outpoints = [
            entry[0]
            for shard in ledger.workload._spendable
            for entry in shard
        ]
        assert len(outpoints) == len(set(outpoints)), "duplicate outpoint"
        spendable_value = sum(
            entry[2]
            for shard in ledger.workload._spendable
            for entry in shard
        )
        assert spendable_value <= genesis_total
    assert ledger.mempool.total_evicted > 0  # the hazard path actually ran


# -- sweep integration -------------------------------------------------------
POISSON_SWEEP = ExperimentSpec(
    name="overlap-mempool-sweep",
    rounds=3,
    seeds=(0, 1),
    base={
        "n": 24, "m": 2, "lam": 2, "referee_size": 6,
        "users_per_shard": 12, "tx_per_committee": 4,
        "arrival_process": "poisson", "arrival_rate": 14.0,
        "mempool_max_age": 2,
    },
    grid={"overlap": ("none", "semicommit")},
)


def test_poisson_run_stable_across_hash_seeds():
    """Persistent-mempool runs must not depend on PYTHONHASHSEED.

    Settlement publishes deferred outputs in queue order, never in
    set-iteration order — this caught a real bug where forget_txids
    iterated the packed-txid set and block content varied by hash seed.
    In-process byte-identity tests cannot see this (one process has one
    hash seed), so run two interpreters with different seeds.
    """
    import subprocess
    import sys

    program = (
        "from repro.core.config import ProtocolParams\n"
        "from repro.core.protocol import CycLedger\n"
        "from repro.exp.results import round_row\n"
        "from repro.exp.spec import canonical_json\n"
        "params = ProtocolParams(n=24, m=2, lam=2, referee_size=6, seed=3,\n"
        "    users_per_shard=12, tx_per_committee=4, invalid_ratio=0.1,\n"
        "    arrival_process='poisson', arrival_rate=14.0,\n"
        "    mempool_max_age=2, overlap='semicommit')\n"
        "rows = [round_row(r) for r in CycLedger(params).run(3)]\n"
        "print(canonical_json(rows))\n"
    )
    outputs = []
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_mempool_sweep_serial_parallel_byte_identical(tmp_path):
    serial = run_sweep(POISSON_SWEEP, workers=1)
    parallel = run_sweep(POISSON_SWEEP, workers=2)
    assert serial.json_bytes() == parallel.json_bytes()
    # The overlap arms of one seed share the ledger state, and semicommit
    # finishes sooner.
    for seed in (0, 1):
        none = serial.one(seed=seed, overlap="none")
        semi = serial.one(seed=seed, overlap="semicommit")
        assert none.chain == semi.chain
        assert none.totals["packed"] == semi.totals["packed"]
        assert none.totals["tx_evicted"] == semi.totals["tx_evicted"]
        assert semi.totals["e2e_sim_time"] < none.totals["e2e_sim_time"]
    csv_path = tmp_path / "sweep.csv"
    write_csv(str(csv_path), serial.results)
    header = csv_path.read_text().splitlines()[0].split(",")
    for column in (
        "e2e_sim_time", "queue_depth_final", "tx_evicted", "tx_age_max",
    ):
        assert column in header
    assert "p_overlap" in header


def test_overlap_axis_is_seed_paired():
    """Both overlap arms of one sweep point run the same derived seed.

    ``overlap`` travels inside the params override dict, but it is
    excluded from seed derivation (like the scenario and backend axes):
    it only re-times the reported timeline, so the arms must share every
    protocol stream for the latency comparison to be paired.  Cache keys
    still differ — the descriptor keeps the full params.
    """
    points = POISSON_SWEEP.expand()
    assert len(points) == 4  # 2 overlap modes x 2 seeds
    by_seed: dict[int, set[int]] = {}
    keys = set()
    for point in points:
        by_seed.setdefault(point.seed, set()).add(point.derived_seed)
        keys.add(point.key)
    assert all(len(derived) == 1 for derived in by_seed.values())
    assert len(keys) == 4  # distinct cache identities per arm
