"""§VIII future-work extensions as ablations.

* §VIII-A pre-filtering: under an invalid-heavy (DoS-like) cross-shard
  workload, leaders exchanging a preference first saves committee-wide vote
  rounds over obviously-invalid transactions.  The on/off arms run as one
  engine sweep over the ``prefilter_cross_shard`` axis.
* §VIII-B parallel block generation: partition packed transactions into
  pairwise-irrelevant sub-blocks and measure the achievable parallelism.
"""

import numpy as np

from conftest import print_table
from repro.core.blockgen import parallel_subblocks
from repro.exp import ExperimentSpec, run_sweep
from repro.ledger.workload import WorkloadGenerator

PREFILTER_SPEC = ExperimentSpec(
    name="prefilter-ablation",
    rounds=2,
    seeds=(7,),
    derive_seeds=False,
    base={
        "n": 48,
        "m": 3,
        "lam": 2,
        "referee_size": 6,
        "users_per_shard": 32,
        "tx_per_committee": 10,
        "cross_shard_ratio": 0.6,
        "invalid_ratio": 0.5,  # DoS-like flood
    },
    grid={"prefilter_cross_shard": (False, True)},
)


def run_ablation():
    outcome = run_sweep(PREFILTER_SPEC, workers=2)
    arms = {}
    for mode, prefilter in (("off", False), ("on", True)):
        result = outcome.one(prefilter_cross_shard=prefilter)
        arms[mode] = (
            result.totals["inter_voted"],
            result.totals["inter_accepted"],
            result.totals["prefilter_savings"],
        )
    return arms


def test_prefilter_ablation(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = [
        (mode, voted, accepted, savings)
        for mode, (voted, accepted, savings) in results.items()
    ]
    print_table(
        "§VIII-A prefilter under a 50%-invalid cross-shard flood",
        ["prefilter", "txs voted on (send side)", "committed", "dropped early"],
        rows,
    )
    off_voted, off_accepted, _ = results["off"]
    on_voted, on_accepted, on_savings = results["on"]
    assert on_savings > 0, "§VIII-A: the pre-filter dropped no transaction early"
    assert on_voted < off_voted, (  # wasted consensus work eliminated
        f"§VIII-A: the send side voted on {on_voted} transactions with the "
        f"pre-filter and {off_voted} without, want fewer with it"
    )
    assert on_accepted >= 0.5 * off_accepted, (  # valid throughput preserved
        f"§VIII-A: {on_accepted} committed with the pre-filter, {off_accepted} "
        "without, want at least half as many"
    )


def test_parallel_block_width(benchmark):
    """§VIII-B: irrelevant transactions can be processed in parallel; with a
    UTXO workload of independent spends the relevance graph is sparse and a
    few sub-blocks cover everything."""

    def run():
        rng = np.random.default_rng(8)
        generator = WorkloadGenerator(m=4, users_per_shard=64, rng=rng)
        batch = generator.generate_batch(150, invalid_ratio=0.0)
        txs = [t.tx for t in batch]
        groups = parallel_subblocks(txs)
        return len(txs), groups

    total, groups = benchmark.pedantic(run, rounds=1, iterations=1)
    widths = sorted((len(g) for g in groups), reverse=True)
    print_table(
        "§VIII-B parallel sub-blocks over 150 independent-ish transactions",
        ["metric", "value"],
        [
            ("transactions", total),
            ("sub-blocks (sequential steps)", len(groups)),
            ("max width (parallel txs)", widths[0]),
            ("parallelism = txs / steps", f"{total / len(groups):.1f}"),
        ],
    )
    assert sum(widths) == total, (
        f"§VIII-B: the sub-blocks hold {sum(widths)} transactions of {total}"
    )
    # Independent UTXO spends are almost all pairwise irrelevant.
    assert len(groups) <= 4, (
        f"§VIII-B: {len(groups)} sub-blocks for {total} transactions, want at most 4"
    )
    assert widths[0] > total / 2, (
        f"§VIII-B: the widest sub-block holds {widths[0]} of {total}, want over half"
    )


def test_parallel_block_in_protocol(benchmark):
    def run():
        spec = ExperimentSpec(
            name="parallel-blockgen",
            rounds=1,
            seeds=(9,),
            derive_seeds=False,
            base={
                "n": 48,
                "m": 3,
                "lam": 2,
                "referee_size": 6,
                "users_per_shard": 32,
                "tx_per_committee": 10,
                "parallel_block_generation": True,
            },
        )
        return run_sweep(spec).results[0].per_round[0]

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nparallel blockgen: {row['blockgen_subblocks']} sub-blocks, "
          f"width {row['blockgen_width']} of {row['packed']} packed")
    assert row["blockgen_subblocks"] >= 1, "§VIII-B: a round built no sub-block"
    assert row["blockgen_width"] <= row["packed"], (
        f"§VIII-B: a sub-block {row['blockgen_width']} wide in a block of "
        f"{row['packed']} packed transactions"
    )
