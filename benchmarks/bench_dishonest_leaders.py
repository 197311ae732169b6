"""Table I's headline row — high efficiency w.r.t. dishonest leaders.

**Full simulation**: CycLedger rounds with a sweep of corrupted-node
fractions whose leaders equivocate, driven by the parallel experiment
engine (fraction × seed grid); throughput stays up because every faulty
leader is impeached within its round (the paper's recovery procedure).

The cross-protocol contrast for this row is measured as well, not modelled:
``repro.exp.policies_artifact`` reads each executable backend's packed
ratio from the seed-paired ``policy-compare`` sweep under the
leader-targeting ``adaptive-corruption`` preset (``bench_policies.py``
pins it in ``BENCH_policies.json``; ``bench_table1_comparison.py`` prints
it as Table I's column and checks it at unseen seeds).
"""

import numpy as np

from conftest import print_table
from repro.exp import ExperimentSpec, run_sweep

FRACTIONS = (0.0, 0.15, 0.3)

SPEC = ExperimentSpec(
    name="dishonest-leaders",
    rounds=2,
    seeds=(1, 2, 3),
    derive_seeds=False,
    base={
        "n": 48,
        "m": 3,
        "lam": 2,
        "referee_size": 6,
        "users_per_shard": 24,
        "tx_per_committee": 8,
        "cross_shard_ratio": 0.25,
        "adversary.leader_strategy": "equivocating_leader",
        "adversary.voter_strategy": "honest",  # isolate the leader effect
    },
    grid={"adversary.fraction": FRACTIONS},
)


def sweep() -> dict[float, tuple[float, int]]:
    """fraction -> (mean packed-per-round across seeds, total recoveries)."""
    outcome = run_sweep(SPEC)
    results = {}
    for fraction in FRACTIONS:
        per_round = [
            row["packed"]
            for result in outcome.find(fraction=fraction)
            for row in result.per_round
        ]
        recoveries = sum(
            result.totals["recoveries"] for result in outcome.find(fraction=fraction)
        )
        results[fraction] = (float(np.mean(per_round)), recoveries)
    return results


def test_dishonest_leaders_fullsim(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    baseline = results[0.0][0]
    rows = [
        (f"{f:.2f}", f"{packed:.1f}", f"{packed / baseline:.2f}", recoveries)
        for f, (packed, recoveries) in sorted(results.items())
    ]
    print_table(
        "CycLedger full-sim: throughput vs corrupted fraction (equivocating leaders)",
        ["corrupt frac", "packed/round", "vs honest", "recoveries"],
        rows,
    )
    # Recovery keeps throughput within ~25% of the honest baseline even at
    # 30% corruption, and recoveries actually fired.
    assert results[0.3][0] > 0.7 * baseline, (
        f"Table I high efficiency w.r.t. dishonest leaders: at 30% "
        f"equivocating corruption CycLedger packs {results[0.3][0]:.1f} a "
        f"round, not above 0.7x the honest {baseline:.1f}"
    )
    assert results[0.3][1] > 0, "no leader recovery fired at 30% corruption"
