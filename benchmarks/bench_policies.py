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
from repro.exp import policy_compare_spec, run_sweep

POLICY = "adaptive-corruption"


def run_all():
    return run_sweep(policy_compare_spec(), workers=1)


def test_policy_compare(benchmark, tmp_path):
    outcome = benchmark.pedantic(run_all, rounds=1, iterations=1)

    spec = policy_compare_spec()
    backends = list(spec.backend_grid)
    arms = {}
    for backend in backends:
        plain = outcome.find(backend=backend, policy=None)
        attacked = outcome.find(backend=backend, policy=POLICY)
        assert len(plain) == len(attacked) == 1, backend
        # Seed-paired: both arms of one backend run the same protocol seed.
        assert plain[0].point["derived_seed"] == attacked[0].point["derived_seed"]
        base = plain[0].totals["packed"]
        hit = attacked[0].totals["packed"]
        arms[backend] = {
            "packed_baseline": base,
            "packed_under_policy": hit,
            "packed_ratio": hit / base if base else 0.0,
            "recoveries_under_policy": attacked[0].totals["recoveries"],
        }

    print_table(
        f"Packed transactions, policy-free vs {POLICY} (seed-paired)",
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
    assert arms["cycledger"]["recoveries_under_policy"] > 0

    assert_matches_committed(
        "BENCH_policies.json",
        {
            "spec": spec.name,
            "policy": POLICY,
            "rounds": spec.rounds,
            "backends": arms,
        },
        tmp_path,
    )
