"""Table I — comparison of CycLedger with previous sharding protocols.

Regenerates every row of Table I with measured / evaluated quantities:
resiliency, complexity, storage, per-round failure probability,
decentralization, incentives and connection burden (reliable-channel
census), plus the λ ablation for the partial-set term, the vectorized
analytic scaling curves over an n-grid, and — for every protocol with an
executable backend — *simulated* throughput/latency columns next to the
analytic rows, produced by actually running the protocol on the shared
network simulator.

The dishonest-leader row is measured too: each executable backend's packed
ratio under the leader-targeting ``adaptive-corruption`` preset, read by
``repro.exp.policies_artifact`` from the seed-paired ``policy-compare``
sweep (seed 0 is the sweep ``BENCH_policies.json`` pins; seeds 1-3 are
checked here against the Table I claim).  Elastico has no backend and
prints "n/a (analytic only)".
"""

import dataclasses

import numpy as np

from conftest import print_table
from repro.analysis.security import partial_set_failure, union_bound
from repro.backends import BACKEND_REGISTRY, create_backend
from repro.baselines import ALL_MODELS
from repro.core.config import ProtocolParams
from repro.exp import policies_artifact, policy_compare_spec, run_sweep
from repro.net.topology import full_clique_channels
from repro.scenarios import SCENARIO_PRESETS

# The configuration Fig. 5 and §V use: n = 2000 nodes, m = 10 committees of
# c = 200, λ = 40, |C_R| = 200.
N, M, C, LAM, CR = 2000, 10, 200, 40, 200

#: Table I protocol name -> executable backend registry name.
EXECUTABLE = {model.name: model.backend for model in ALL_MODELS if model.backend}
RIVALS = [backend for name, backend in EXECUTABLE.items() if name != "CycLedger"]

#: Simulation scale for the executable columns (committee structure of the
#: paper at test scale so the bench stays fast).
SIM_SCALE = dict(
    n=48, m=4, lam=2, referee_size=8, users_per_shard=24,
    tx_per_committee=6, cross_shard_ratio=0.3, invalid_ratio=0.1,
)
SIM_ROUNDS = 3

#: Seeds the committed artefact does not pin.
UNSEEN_SEEDS = (1, 2, 3)
#: The adversary's corruption budget f, and what a recovery-free rival keeps
#: at most when a cross-shard pair needs both its leaders honest: (1 − f)².
BUDGET = SCENARIO_PRESETS["adaptive-corruption"].events[0].budget_fraction
RIVAL_CAP = (1 - BUDGET) ** 2


def measured_scale() -> str:
    spec = policy_compare_spec()
    return (
        f"adaptive-corruption, f = {BUDGET} budget, n = {spec.base['n']}, "
        f"m = {spec.base['m']}, λ = {spec.base['lam']}, {spec.rounds} rounds"
    )


def assert_leader_row(arms: dict, seed: int) -> None:
    """Table I's "high efficiency w.r.t. dishonest leaders", measured: under
    the same adaptive adversary CycLedger keeps at least 3x the packed share
    of each recovery-free rival, and no rival beats (1 − f)²."""
    cyc = arms["cycledger"]["packed_ratio"]
    for rival in RIVALS:
        ratio = arms[rival]["packed_ratio"]
        assert cyc >= 3 * ratio, (
            f"Table I high efficiency w.r.t. dishonest leaders: at seed {seed} "
            f"CycLedger keeps {cyc:.2f} of its packed transactions under "
            f"adaptive-corruption, less than 3x {rival}'s {ratio:.2f}"
        )
        assert ratio <= RIVAL_CAP, (
            f"Table I: recovery-free {rival} keeps {ratio:.2f} at seed {seed}, "
            f"above (1 - f)^2 = {RIVAL_CAP:.4f} for f = {BUDGET}"
        )


def build_table1() -> tuple[dict, list[tuple]]:
    """The measured policy-compare arms (seed 0) and the Table I rows."""
    arms = policies_artifact(run_sweep(policy_compare_spec(), workers=1))["backends"]
    rows = []
    for model in ALL_MODELS:
        arm = arms.get(model.backend)
        rows.append(
            (
                model.name,
                f"t < n/{round(1 / model.resiliency)}",
                f"{model.complexity_messages(N, M, C):.0f}",
                f"{model.storage(N, M, C):.1f}",
                f"{model.fail_probability(M, C, LAM):.2e}",
                model.decentralization,
                "n/a (analytic only)" if arm is None else f"{arm['packed_ratio']:.2f}",
                "yes" if model.has_incentives else "no",
                f"{model.connection_channels(N, M, C, LAM, CR):,}",
            )
        )
    return arms, rows


def test_table1(benchmark):
    arms, rows = benchmark.pedantic(build_table1, rounds=1, iterations=1)
    print_table(
        f"Table I (n=2000, m=10, c=200, λ=40; leader-attack packed ratio: "
        f"{measured_scale()}, seed 0)",
        ["protocol", "resiliency", "complexity", "storage/node",
         "fail prob/round", "decentralization", "leader-attack",
         "incentives", "reliable channels"],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    assert by_name["Elastico"][6] == "n/a (analytic only)", (
        "Elastico has no executable backend, so no measured leader-attack cell"
    )
    assert_leader_row(arms, seed=0)
    # Connection burden: CycLedger uses a fraction of the honest clique.
    cyc_channels = int(by_name["CycLedger"][8].replace(",", ""))
    assert cyc_channels < full_clique_channels(N) / 4
    # Failure probability: CycLedger ~ RapidChain ≪ Elastico at c=200.
    assert float(by_name["CycLedger"][4]) < float(by_name["Elastico"][4])


def test_table1_leader_row_unseen_seeds(benchmark):
    """The dishonest-leader contrast at seeds the committed artefact does
    not pin, on the same spec."""
    spec = dataclasses.replace(policy_compare_spec(), seeds=UNSEEN_SEEDS)
    outcome = benchmark.pedantic(
        run_sweep, args=(spec,), kwargs={"workers": 1}, rounds=1, iterations=1
    )
    per_seed = {
        seed: policies_artifact(outcome, seed=seed)["backends"]
        for seed in UNSEEN_SEEDS
    }
    print_table(
        f"Leader-attack packed ratio at unseen seeds ({measured_scale()})",
        ["seed", *EXECUTABLE, "CycLedger recoveries"],
        [
            (seed, *(f"{arms[b]['packed_ratio']:.2f}" for b in EXECUTABLE.values()),
             arms["cycledger"]["recoveries_under_policy"])
            for seed, arms in per_seed.items()
        ],
    )
    for seed, arms in per_seed.items():
        assert_leader_row(arms, seed)


def analytic_curves(ns: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
    """The Table I quantitative rows as *curves* over an n-grid.

    One numpy expression per model/row — no per-point Python loops; the
    committee size tracks the paper's structure (c = (n - |C_R|) / m).
    """
    ns = np.asarray(ns, dtype=float)
    cs = (ns - CR) / M
    return {
        model.name: {
            "complexity": model.complexity_messages(ns, M, cs),
            "storage": model.storage(ns, M, cs),
            "fail": model.fail_probability(M, cs, LAM),
        }
        for model in ALL_MODELS
    }


def test_table1_scaling_curves(benchmark):
    """Vectorized analytic curves agree with the scalar table entries."""
    ns = np.arange(500, 5001, 100)
    curves = benchmark(analytic_curves, ns)
    index = int(np.flatnonzero(ns == N)[0])
    c_at_n = (N - CR) / M  # the grid's derived committee size at n = N
    for model in ALL_MODELS:
        rows = curves[model.name]
        for row in ("complexity", "storage", "fail"):
            assert rows[row].shape == ns.shape
        assert rows["complexity"][index] == model.complexity_messages(N, M, c_at_n)
        assert rows["storage"][index] == model.storage(N, M, c_at_n)
        assert rows["fail"][index] == model.fail_probability(M, c_at_n, LAM)
    # Failure probability falls with n (committees grow with n at fixed m).
    for name in ("CycLedger", "RapidChain"):
        fail = curves[name]["fail"]
        assert fail[-1] < fail[0]
    sample = ns[:: len(ns) // 5]
    print_table(
        f"Table I scaling curves (m={M}, |C_R|={CR}, λ={LAM}; sampled)",
        ["n"] + [m.name for m in ALL_MODELS],
        [
            (int(n),)
            + tuple(
                f"{curves[m.name]['fail'][int(np.flatnonzero(ns == n)[0])]:.1e}"
                for m in ALL_MODELS
            )
            for n in sample
        ],
    )


def simulated_rows(rounds: int = SIM_ROUNDS) -> dict[str, dict]:
    """Run every executable backend head-to-head on one seed and distil the
    simulated Table I columns (throughput, latency, traffic)."""
    out: dict[str, dict] = {}
    for display, backend in EXECUTABLE.items():
        ledger = create_backend(backend, ProtocolParams(seed=7, **SIM_SCALE))
        reports = ledger.run(rounds)
        sim_time = sum(r.sim_time for r in reports)
        packed = sum(r.packed for r in reports)
        out[display] = {
            "packed": packed,
            "cross": sum(r.cross_packed for r in reports),
            "tput": packed / sim_time if sim_time else 0.0,
            "latency": sim_time / rounds,
            "messages": sum(r.messages for r in reports),
            "valid": ledger.chain.verify(),
        }
    return out


def test_table1_simulated(benchmark):
    """Simulated columns sit next to the analytic rows for every protocol
    with an executable backend (Elastico stays analytic-only)."""
    sim = benchmark(simulated_rows)
    rows = []
    for model in ALL_MODELS:
        analytic_fail = f"{model.fail_probability(M, C, LAM):.2e}"
        s = sim.get(model.name)
        if s is None:
            rows.append((model.name, analytic_fail, "—", "—", "—", "—"))
        else:
            rows.append(
                (
                    model.name,
                    analytic_fail,
                    s["packed"],
                    f"{s['tput']:.2f}",
                    f"{s['latency']:.1f}",
                    s["messages"],
                )
            )
    print_table(
        f"Table I analytic vs simulated (sim: n={SIM_SCALE['n']}, "
        f"m={SIM_SCALE['m']}, {SIM_ROUNDS} rounds)",
        ["protocol", "fail/round (analytic)", "sim packed",
         "sim tx/time", "sim latency/round", "sim msgs"],
        rows,
    )
    assert set(EXECUTABLE) <= {m.name for m in ALL_MODELS}
    assert set(EXECUTABLE.values()) <= set(BACKEND_REGISTRY)
    for name, s in sim.items():
        assert s["packed"] > 0, name
        assert s["valid"], name
    # CycLedger's full pipeline costs more traffic than the simplified
    # rivals at equal scale — the comparison is protocol-fidelity-aware.
    assert sim["CycLedger"]["messages"] > sim["RapidChain"]["messages"]


def test_lambda_ablation(benchmark):
    """Partial-set security vs λ (the (1/3)^λ term and the paper's λ=40)."""

    def sweep():
        lams = np.arange(5, 61, 5)
        per_set = partial_set_failure(lams)
        overall = union_bound(per_set, M)
        return lams, per_set, overall

    lams, per_set, overall = benchmark(sweep)
    print_table(
        "λ ablation: partial-set insecurity (m=10 union bound)",
        ["λ", "per-set (1/3)^λ", "any-of-m"],
        [(int(l), f"{p:.2e}", f"{o:.2e}") for l, p, o in zip(lams, per_set, overall)],
    )
    assert partial_set_failure(40) < 8.3e-20
    assert union_bound(partial_set_failure(40), 20) < 2e-18
