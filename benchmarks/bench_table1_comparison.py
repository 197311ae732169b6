"""Table I — comparison of CycLedger with previous sharding protocols.

Regenerates every row of Table I.  Each quantitative cell an executable
backend can produce comes from a run; the rest print the protocol's stated
class, and the failure probability is its paper's formula:

* Complexity, Storage and Burden on connection: ``repro.exp.table1_cells``
  runs every executable backend and reads messages per node, per-role
  storage high-water marks, and CycLedger's channel census (each
  node's distinct partners on the intra, key and referee classes §III-B
  asks reliable channels for).  A rival assumes a clique, n − 1 per node.
  The census is gated on the scale curve's shape (committees of 32,
  |C_R| = 8, m = 2 … 16): common members flat in n, key members and C_R
  within §III-B's per-role bounds.
* High efficiency w.r.t. dishonest leaders: each executable backend's
  packed ratio under the leader-targeting ``adaptive-corruption`` preset,
  read by ``repro.exp.policies_artifact`` from the seed-paired
  ``policy-compare`` sweep (seed 0 is the sweep ``BENCH_policies.json``
  pins; seeds 1-3 are checked here against the Table I claim).

Elastico has no backend and prints "n/a (analytic only)".  Simulated
throughput/latency columns sit next to the failure formula, and the λ
ablation evaluates the partial-set term.
"""

import dataclasses

import numpy as np

from bench_scale import sized
from conftest import print_table
from repro.analysis.security import partial_set_failure, union_bound
from repro.backends import BACKEND_REGISTRY, create_backend
from repro.core.config import ProtocolParams
from repro.exp import (
    TABLE1,
    policies_artifact,
    policy_compare_spec,
    run_sweep,
    table1_cells,
)
from repro.scenarios import SCENARIO_PRESETS

# The configuration Fig. 5 and §V use for the failure formula: m = 10
# committees of c = 200, λ = 40.
M, C, LAM = 10, 200, 40

#: Table I protocol name -> executable backend registry name.
EXECUTABLE = {row.name: row.backend for row in TABLE1 if row.backend}
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

#: The burden census's m ladder (n = 32·m + 8), and how far a common
#: member's mean partner count may spread over it (max / min).
BURDEN_LADDER, COMMON_SPREAD = (2, 4, 8, 16), 1.1


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
    """The measured policy-compare arms (seed 0) and the Table I rows, the
    Complexity, Storage and Burden cells measured at the sweep's shape."""
    spec = policy_compare_spec()
    arms = policies_artifact(run_sweep(spec, workers=1))["backends"]
    cells = table1_cells(ProtocolParams(**spec.base))
    rows = []
    for row in TABLE1:
        arm, cell = arms.get(row.backend), cells[row.name]
        rows.append(
            (
                row.name,
                f"t < n/{round(1 / row.resiliency)}",
                cell["complexity"],
                cell["storage"],
                f"{row.fail_probability(M, C, LAM):.2e}",
                row.decentralization,
                "n/a (analytic only)" if arm is None else f"{arm['packed_ratio']:.2f}",
                "yes" if row.has_incentives else "no",
                cell["burden"],
            )
        )
    return arms, rows


def test_table1(benchmark):
    arms, rows = benchmark.pedantic(build_table1, rounds=1, iterations=1)
    print_table(
        f"Table I (fail prob: m={M}, c={C}, λ={LAM}; msgs/node, storage, "
        f"partners: round 2 of the sweep's shape; leader-attack: "
        f"{measured_scale()}, seed 0)",
        ["protocol", "resiliency", "msgs/node", "storage (items)",
         "fail prob/round", "decentralization", "leader-attack",
         "incentives", "reliable partners/node (mean/max)"],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    assert by_name["Elastico"][6] == "n/a (analytic only)", (
        "Elastico has no executable backend, so no measured leader-attack cell"
    )
    assert_leader_row(arms, seed=0)
    # Failure probability: CycLedger ~ RapidChain ≪ Elastico at c=200.
    assert float(by_name["CycLedger"][4]) < float(by_name["Elastico"][4]), (
        f"Table I at m = {M}, c = {C}, λ = {LAM}: CycLedger's failure per round "
        f"{by_name['CycLedger'][4]} is not below Elastico's {by_name['Elastico'][4]}"
    )


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


def test_table1_burden(benchmark):
    """The Burden row over n: CycLedger's reliable-channel partners per node
    at the scale curve's shape, against the clique a rival assumes."""
    ladder = benchmark.pedantic(
        lambda: {m: table1_cells(sized(m)) for m in BURDEN_LADDER},
        rounds=1, iterations=1,
    )
    rows, common = [], []
    for m, cells in ladder.items():
        params, partners = sized(m), cells["CycLedger"]["partners"]
        c, lam, cr = params.committee_size, params.lam, params.referee_size
        rows.append((params.n, m, cells["CycLedger"]["burden"], params.n - 1,
                     *(cells[name]["complexity"] for name in EXECUTABLE)))
        common.append(partners["common"][0])
        key_bound = c - 1 + (m - 1) * (lam + 1) + cr
        assert partners["key"][0] <= key_bound, (
            f"Table I burden: key members average {partners['key'][0]:.1f} "
            f"reliable partners at m = {m}, above §III-B's c - 1 + "
            f"(m - 1)(λ + 1) + |C_R| = {key_bound}"
        )
        referee_bound = m * (lam + 1) + cr - 1
        assert partners["referee"][1] <= referee_bound, (
            f"Table I burden: a referee member has {partners['referee'][1]} "
            f"reliable partners at m = {m}, above §III-B's m(λ + 1) + |C_R| - 1 "
            f"= {referee_bound}"
        )
    print_table(
        "Table I burden over n (c = 32, |C_R| = 8, λ = 2; round 2, seed 0)",
        ["n", "m", "CycLedger partners/node (mean/max)", "rival clique n - 1",
         *(f"{name} msgs/node" for name in EXECUTABLE)],
        rows,
    )
    assert max(common) <= COMMON_SPREAD * min(common), (
        f"Table I burden: common members' mean reliable partners are not flat "
        f"in n: {', '.join(f'{x:.1f}' for x in common)} over m = {BURDEN_LADDER}"
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
    for row in TABLE1:
        analytic_fail = f"{row.fail_probability(M, C, LAM):.2e}"
        s = sim.get(row.name)
        if s is None:
            rows.append((row.name, analytic_fail, "—", "—", "—", "—"))
        else:
            rows.append(
                (
                    row.name,
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
    assert sorted(EXECUTABLE.values()) == sorted(BACKEND_REGISTRY), (
        f"Table I: the rows name backends {sorted(EXECUTABLE.values())}, the "
        f"registry holds {sorted(BACKEND_REGISTRY)}; every registered backend "
        "must name exactly one row"
    )
    for name, s in sim.items():
        assert s["packed"] > 0, name
        assert s["valid"], name
    # CycLedger's full pipeline costs more traffic than the simplified
    # rivals at equal scale — the comparison is protocol-fidelity-aware.
    assert sim["CycLedger"]["messages"] > sim["RapidChain"]["messages"], (
        f"Table I simulated, n = {SIM_SCALE['n']}, {SIM_ROUNDS} rounds: CycLedger "
        f"sent {sim['CycLedger']['messages']} messages, RapidChain "
        f"{sim['RapidChain']['messages']}; want CycLedger's full pipeline above"
    )


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
    assert partial_set_failure(40) < 8.3e-20, (
        f"λ ablation: (1/3)^40 reads {partial_set_failure(40):.2e}, want under "
        "the paper's 8.3e-20"
    )
    assert union_bound(partial_set_failure(40), 20) < 2e-18, (
        f"λ ablation: the m = 20 union bound at λ = 40 reads "
        f"{union_bound(partial_set_failure(40), 20):.2e}, want under 2e-18"
    )
