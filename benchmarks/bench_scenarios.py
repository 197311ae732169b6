"""Scenario subsystem: throughput under partition and recovery latency.

Runs the fault-free baseline against the ``partition-halves`` and
``leader-crash`` presets at small scale, asserts the partition demonstrably
degrades cross-shard packing inside the fault window and recovers after
it, and checks the headline numbers against the committed
``BENCH_scenarios.json`` (the fresh copy goes under pytest's ``tmp_path``),
so a PR that moves fault-tolerance behaviour fails naming the field.
"""

from conftest import assert_matches_committed, print_table
from repro import CycLedger, ProtocolParams
from repro.scenarios import SCENARIO_PRESETS

PARAMS = dict(
    n=48,
    m=4,
    lam=2,
    referee_size=8,
    seed=0,
    users_per_shard=24,
    tx_per_committee=6,
    cross_shard_ratio=0.3,
)
ROUNDS = 5
#: partition-halves cuts rounds 2-3 (see repro/scenarios/presets.py)
WINDOW = (2, 3)


def _run(scenario_name=None):
    scenario = SCENARIO_PRESETS[scenario_name] if scenario_name else None
    ledger = CycLedger(ProtocolParams(**PARAMS), scenario=scenario)
    return ledger.run(ROUNDS)


def _window_totals(reports, field):
    inside = sum(
        getattr(r, field) for r in reports if WINDOW[0] <= r.round_number <= WINDOW[1]
    )
    outside = sum(
        getattr(r, field)
        for r in reports
        if not WINDOW[0] <= r.round_number <= WINDOW[1]
    )
    return inside, outside


def run_all():
    return _run(None), _run("partition-halves"), _run("leader-crash")


def test_scenarios(benchmark, tmp_path):
    baseline, partition, crash = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )

    base_cross_in, base_cross_out = _window_totals(baseline, "cross_packed")
    part_cross_in, part_cross_out = _window_totals(partition, "cross_packed")
    base_packed_in, _ = _window_totals(baseline, "packed")
    part_packed_in, _ = _window_totals(partition, "packed")
    window_sim_time = sum(
        r.sim_time for r in partition if WINDOW[0] <= r.round_number <= WINDOW[1]
    )
    recovery_times = [t for r in crash for t in r.recovery_times]

    print_table(
        "Cross-shard packing, baseline vs partition-halves",
        ["round", "baseline", "partition", "dropped"],
        [
            (b.round_number, b.cross_packed, p.cross_packed, p.dropped)
            for b, p in zip(baseline, partition)
        ],
    )
    print(
        f"partition window: cross {part_cross_in}/{base_cross_in}, "
        f"throughput {part_packed_in / window_sim_time:.3f} tx/time-unit "
        f"(baseline window packed {base_packed_in})"
    )
    print(
        f"leader-crash recoveries: {len(recovery_times)}, "
        f"first at sim-time {min(recovery_times, default=0.0):.1f}"
    )

    # The cut demonstrably degrades cross-shard packing...
    assert part_cross_in < 0.5 * base_cross_in, (
        f"partition-halves, rounds {WINDOW[0]}-{WINDOW[1]}: {part_cross_in} "
        f"cross-shard txs packed against {base_cross_in} fault-free, want under half"
    )
    # ...and the fabric recovers once the window closes.
    assert part_cross_out > 0.5 * base_cross_out, (
        f"partition-halves outside rounds {WINDOW[0]}-{WINDOW[1]}: {part_cross_out} "
        f"cross-shard txs packed against {base_cross_out} fault-free, want over half"
    )
    late_drops = [
        (r.round_number, r.dropped) for r in partition if r.round_number > WINDOW[1]
    ]
    assert all(dropped == 0 for _, dropped in late_drops), (
        f"partition-halves after round {WINDOW[1]}: (round, dropped) = "
        f"{late_drops}, want no message dropped once the window closes"
    )
    # The crashed leader is impeached and replaced inside the round.
    assert recovery_times, "leader crash must trigger at least one recovery"

    assert_matches_committed(
        "BENCH_scenarios.json",
        {
            "params": PARAMS,
            "rounds": ROUNDS,
            "partition": {
                "window": list(WINDOW),
                "cross_packed_window": part_cross_in,
                "cross_packed_window_baseline": base_cross_in,
                "cross_packed_recovery": part_cross_out,
                "cross_packed_recovery_baseline": base_cross_out,
                "packed_window": part_packed_in,
                "packed_window_baseline": base_packed_in,
                "throughput_under_partition": part_packed_in / window_sim_time,
                "dropped_per_round": [r.dropped for r in partition],
            },
            "leader_crash": {
                "recoveries": len(recovery_times),
                "recovery_sim_times": recovery_times,
                "first_recovery_sim_time": min(recovery_times, default=None),
            },
        },
        tmp_path,
    )
