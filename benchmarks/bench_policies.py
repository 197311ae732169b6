"""Adaptive-adversary robustness: the seed-paired policy sweep.

Runs the canned ``policy-compare`` sweep (policy-free vs
leaderboard-targeting corruption, seed-paired, on all three executable
backends), asserts CycLedger retains strictly more of its throughput
under the same adaptive adversary than either recovery-free rival, and
checks the headline ratios against the committed ``BENCH_policies.json``
(the fresh copy goes under pytest's ``tmp_path``), so a PR that moves
adaptive-robustness behaviour fails naming the field that moved.
"""

from conftest import assert_matches_committed, print_table
from repro.exp import policies_artifact, policy_compare_spec, run_sweep


def run_all():
    return run_sweep(policy_compare_spec(), workers=1)


def test_policy_compare(benchmark, tmp_path):
    outcome = benchmark.pedantic(run_all, rounds=1, iterations=1)
    artifact = policies_artifact(outcome)
    arms = artifact["backends"]

    print_table(
        f"Packed transactions, policy-free vs {artifact['policy']} (seed-paired)",
        ["backend", "baseline", "attacked", "ratio"],
        [
            (b, a["packed_baseline"], a["packed_under_policy"],
             f"{a['packed_ratio']:.2f}")
            for b, a in arms.items()
        ],
    )

    cyc = arms["cycledger"]["packed_ratio"]
    for rival in ("rapidchain", "omniledger_sim"):
        assert cyc > arms[rival]["packed_ratio"], (
            f"adaptive adversary should hurt {rival} more than cycledger"
        )
    # CycLedger's resilience is recovery, not luck: the attacked arm
    # actually exercised leader re-selection.
    assert arms["cycledger"]["recoveries_under_policy"] > 0, (
        f"{artifact['policy']}: cycledger's attacked arm ran "
        f"{arms['cycledger']['recoveries_under_policy']} leader re-selections, "
        "want at least one"
    )

    assert_matches_committed("BENCH_policies.json", artifact, tmp_path)
