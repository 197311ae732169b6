"""§VII — incentive analysis benches.

* Reputation tracks honest computing power (capacity → score → reputation).
* Reward ordering: honest > lazy > malicious.
* Leader punishment ablation (cube root).
* Reputation-based vs random leader selection (the paper's throughput
  argument for picking high-reputation leaders).

The full-simulation measurements run through the parallel experiment
engine with named capacity presets (``tiered`` / ``weak_heavy``), so the
same sweep records drive the table output and the assertions.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.analysis.incentive import expected_score, leader_punishment, reward_shares
from repro.exp import ExperimentSpec, run_sweep

BASE = {
    "n": 48,
    "m": 3,
    "lam": 2,
    "referee_size": 6,
    "users_per_shard": 24,
    "tx_per_committee": 8,
}


def test_reputation_tracks_capacity(benchmark):
    def run():
        spec = ExperimentSpec(
            name="incentive-capacity",
            rounds=3,
            seeds=(4,),
            derive_seeds=False,
            base=BASE,
            capacity_preset="tiered",
        )
        result = run_sweep(spec).results[0]
        by_tier: dict[int, list[float]] = {2: [], 5: [], 10_000: []}
        for node in result.nodes:
            by_tier[node["capacity"]].append(node["reputation"])
        return {cap: float(np.mean(reps)) for cap, reps in by_tier.items()}

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [(cap, f"{mean:+.3f}") for cap, mean in sorted(means.items())]
    print_table("reputation vs validation capacity (3 rounds)",
                ["capacity (txs/round)", "mean reputation"], rows)
    # §VII-A: more honest computing power -> higher reputation.
    assert means[10_000] > means[5] > means[2], (
        f"§VII-A: mean reputation by capacity 2 / 5 / 10 000 is "
        f"{means[2]:+.3f} / {means[5]:+.3f} / {means[10_000]:+.3f}, want increasing"
    )
    # the analytical model agrees on the ordering
    assert expected_score(10, 10) > expected_score(5, 10) > expected_score(2, 10), (
        "§VII-A: expected_score is not increasing in capacity 2 / 5 / 10"
    )


def test_reward_ordering(benchmark):
    def run():
        spec = ExperimentSpec(
            name="incentive-rewards",
            rounds=3,
            seeds=(5,),
            derive_seeds=False,
            base=BASE,
            adversary={"fraction": 0.2, "voter_strategy": "contrary_voter"},
        )
        result = run_sweep(spec).results[0]
        honest, malicious = [], []
        for node in result.nodes:
            bucket = malicious if node["corrupted"] else honest
            bucket.append(node["reward"])
        return float(np.mean(honest)), float(np.mean(malicious))

    honest_mean, malicious_mean = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nmean reward: honest {honest_mean:.3f} vs contrary voters "
          f"{malicious_mean:.3f}")
    # "it is better to do nothing rather than do something bad"
    assert honest_mean > malicious_mean, (
        f"§VII: honest mean reward {honest_mean:.3f} is not above the contrary "
        f"voters' {malicious_mean:.3f}"
    )
    assert malicious_mean >= 0.0, (
        f"§VII: contrary voters' mean reward {malicious_mean:.3f} is negative"
    )


def test_leader_punishment_ablation(benchmark):
    """Cube-root punishment: reward weight of a punished leader drops to
    roughly a third (§VII-B)."""

    def run():
        reputations = {"leader": 20.0, "member": 3.0}
        before = reward_shares(reputations)
        reputations["leader"] = leader_punishment(reputations["leader"])
        after = reward_shares(reputations)
        return before["leader"], after["leader"], reputations["leader"]

    before, after, rep_after = benchmark(run)
    print(f"\nleader share before {before:.3f} -> after punishment {after:.3f} "
          f"(reputation 20 -> {rep_after:.2f})")
    assert rep_after == pytest.approx(20.0 ** (1 / 3)), (
        f"§VII-B: a punished reputation of 20 is {rep_after:.3f}, want "
        f"cbrt(20) = {20.0 ** (1 / 3):.3f}"
    )
    assert after < before, (
        f"§VII-B: the punished leader's share went {before:.3f} -> {after:.3f}, "
        "want lower"
    )


def test_reputation_vs_random_leader_selection(benchmark):
    """Leaders with higher capacity pack more: selecting by reputation beats
    selecting at random once capacities are heterogeneous."""

    def run():
        # Round 1 selects leaders uniformly (no reputation history yet);
        # later rounds select by accumulated reputation, which concentrates
        # on high-capacity nodes.  Average packed/round in each regime,
        # across a seed axis fanned out over worker processes.
        spec = ExperimentSpec(
            name="incentive-leader-selection",
            rounds=4,
            seeds=(6, 7, 8),
            derive_seeds=False,
            base={**BASE, "users_per_shard": 64},
            capacity_preset="weak_heavy",
        )
        outcome = run_sweep(spec, workers=3)
        early_packed, late_packed = [], []
        for result in outcome.results:
            early_packed.append(result.per_round[0]["packed"])
            late_packed.extend(row["packed"] for row in result.per_round[2:])
        return float(np.mean(early_packed)), float(np.mean(late_packed))

    early, late = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\npacked/round: round-1 (uniform leaders) {early:.1f} vs "
          f"rounds 3-4 (reputation leaders) {late:.1f}")
    # Reputation-selected (strong) leaders must at least match uniform ones.
    assert late >= early - 2.0, (
        f"§VII: reputation-selected leaders packed {late:.1f} a round, want at "
        f"least uniform leaders' {early:.1f} - 2"
    )
