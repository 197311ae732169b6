"""Fig. 1 (hierarchical structure) and Fig. 2 (transaction flow).

Fig. 1 is regenerated as a structure census of a configured round: the
referee committee, per-committee leader / partial set / common member
counts, and the channel classes connecting them.

Fig. 2 is regenerated as the end-to-end life of a workload batch: submitted
→ sharded → intra/inter consensus → referee verification → block, with the
simulated-time phase boundaries.

Both figures read off one experiment-engine record of a two-round run
(n=64, m=4, λ=3, |C_R|=8) — the node summary carries the role census, the
per-round rows carry the phase totals and timings.
"""

from conftest import print_table
from repro.exp import ExperimentSpec, run_sweep

SPEC = ExperimentSpec(
    name="fig1-fig2-structure",
    rounds=2,
    seeds=(42,),
    derive_seeds=False,
    base={
        "n": 64,
        "m": 4,
        "lam": 3,
        "referee_size": 8,
        "users_per_shard": 24,
        "tx_per_committee": 8,
        "cross_shard_ratio": 0.3,
    },
)


def build_round():
    return run_sweep(SPEC).results[0]


def test_fig1_hierarchy(benchmark):
    result = benchmark.pedantic(build_round, rounds=1, iterations=1)
    params = result.point["params"]
    n, m, lam, referee_size = (
        params["n"], params["m"], params["lam"], params["referee_size"],
    )
    rows = [("referee committee", referee_size, "-", "-", "-")]
    # role counts from the node summary (roles as of the last round)
    key = sum(1 for node in result.nodes if node["key_member"])
    common = sum(
        1
        for node in result.nodes
        if not node["key_member"] and not node["referee"]
    )
    rows.append(("committees", m, "1 leader each", f"{lam} partial each", ""))
    rows.append(("key members", key, "-", "-", "-"))
    rows.append(("common members", common, "-", "-", "-"))
    print_table(
        "Fig. 1: hierarchical structure (n=64, m=4, λ=3, |C_R|=8)",
        ["stratum", "count", "", "", ""],
        rows,
    )
    assert key == m * (1 + lam), (
        f"Fig. 1: {key} key members, want m(1 + λ) = {m * (1 + lam)}"
    )
    assert common == n - referee_size - key, (
        f"Fig. 1: {common} common members, want n - |C_R| - key = "
        f"{n - referee_size - key}"
    )
    assert result.totals["reliable_channels"] > 0, (
        "Fig. 1: no reliable channel joins the strata"
    )
    # the structure regenerates every round with fresh randomness
    assert result.per_round[1]["block"] is not None, (
        "Fig. 1: round 2 rebuilt the structure but committed no block"
    )


def test_fig2_transaction_flow(benchmark):
    result = benchmark.pedantic(build_round, rounds=1, iterations=1)
    first = result.per_round[0]
    spans = first["phase_sim_times"]
    rows = [
        ("1. submitted by users", first["submitted"], "-"),
        ("2. sharded to committees", first["submitted"],
         f"{result.point['params']['m']} shards"),
        ("3a. intra-committee consensus", first["intra_accepted"],
         f"{spans['intra']:.1f} sim-t"),
        ("3b. inter-committee consensus", first["inter_accepted"],
         f"{spans['inter']:.1f} sim-t"),
        ("4. packed into block B^r", first["packed"],
         f"{spans['block']:.1f} sim-t"),
    ]
    print_table(
        "Fig. 2: transaction flow through one round",
        ["stage", "transactions", "phase time"],
        rows,
    )
    assert first["packed"] > 0, "Fig. 2: round 1 packed no transaction"
    assert first["cross_packed"] > 0, (
        "Fig. 2: no cross-shard transaction went through the inter phase"
    )
    assert first["packed"] <= first["submitted"], (
        f"Fig. 2: {first['packed']} packed of {first['submitted']} submitted"
    )
    # every phase consumed simulated time and the round terminated
    assert first["sim_time"] > 0, "Fig. 2: the round took no simulated time"
