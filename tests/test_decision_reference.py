"""CycLedger's intra- and inter-phase decisions (accepted txids, detections,
retries, impeachments as ``(committee, kind, old_leader, new_leader,
succeeded)``), compared every round with the model of ``decision_reference.py``.
The state machine of ``test_consensus_conformance.py`` and the phase tests
compare through the helpers here."""

import numpy as np
import pytest
from decision_reference import Committee, Inter, Node, World, decide, decide_inter
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.adapter import build
from perfbench.workloads import BY_NAME
from reference_impls import by_home_shard
from repro import create_backend
from repro.core.committee import run_committee_configuration
from repro.core.inter import run_inter_consensus
from repro.core.intra import run_intra_consensus
from repro.core.pipeline import POST, PRE
from repro.core.sandbox import build_sandbox
from repro.core.semicommit import run_semi_commitment_exchange
from repro.ledger.state import apply_block
from repro.ledger.workload import WorkloadGenerator
from repro.nodes.behaviors import BEHAVIOR_REGISTRY, CensoringLeader


def world_of(ctx):
    """The reference's inputs, read off ``ctx`` as a phase starts."""
    ids = {node.pk: nid for nid, node in ctx.nodes.items()}
    nodes = {
        nid: Node(node.behavior.name, getattr(node.behavior, "keep_fraction", None),
                  node.online, node.capacity, node.budget_left, ctx.net.partition_group(nid))
        for nid, node in ctx.nodes.items()
    }
    lists = ctx.member_lists
    committees = [
        Committee(c.index, c.leader, c.partial, c.members,
                  frozenset(ids[pk] for pk, _ in lists.get(c.index, ())))
        for c in ctx.committees
    ]
    pools = [[(t.tx, t.cross_shard) for t in pool] for pool in ctx.mempools]
    views = [
        {op: utxos.get(op)[1] for tx, _ in pool for op in tx.inputs if op in utxos}
        for utxos, pool in zip((s.utxos for s in ctx.shard_states), pools)
    ]
    shard_of = {a: ctx.shard_of[a] for pool in pools for tx, _ in pool for a, _ in tx.outputs}
    return World(committees, ctx.referee, nodes, ctx.params.tx_per_committee, pools,
                 views, shard_of, ctx.params.prefilter_cross_shard)


PHASES = {"intra": run_intra_consensus, "inter": run_inter_consensus}


def assert_decides(name, world, report):
    """Phase ``name``'s report decides what the reference decides from
    ``world`` (inter's pairs that commit nothing left out); returns that."""
    events = [(e.committee, e.kind, e.old_leader, e.new_leader, e.succeeded)
              for e in report.recoveries]
    if name == "intra":
        by_cr = report.accepted_by_cr
        decided, observed = decide(world), (
            {k: tuple(tx.txid for tx in txs) for k, txs in by_cr.items()}, events)
    else:
        accepted = {k: tuple(tx.txid for tx in txs) for k, txs in report.accepted.items()}
        decided, observed = decide_inter(world), Inter(
            {k: txids for k, txids in accepted.items() if txids},
            report.censorship_detected, report.silence_detected,
            report.equivocation_detected, report.retried, events)
    assert observed == decided
    return decided


def compare_every_round(ledger):
    """Compare ``ledger``'s intra and inter phases with the reference every
    round through the pipeline's phase hooks; returns the two lists of
    decisions, one entry a round."""
    worlds, decided = [], {name: [] for name in PHASES}
    for name in PHASES:
        ledger.pipeline.add_phase_hook(name, PRE, lambda ctx, _: worlds.append(world_of(ctx)))
        ledger.pipeline.add_phase_hook(name, POST, lambda ctx, _, name=name: decided[
            name].append(assert_decides(name, worlds.pop(), ctx.phase_reports[name])))
    return decided["intra"], decided["inter"]


def staged(
    m=3, c=8, behaviors=None, seed=0, txs=70, invalid=0.15, cross=0.0,
    capacities=None, offline=(),
):
    """A sandbox round up to the intra phase: ``txs`` transactions offered,
    committees configured, semi-commitments exchanged (capacities by id)."""
    ctx = build_sandbox(
        m=m, committee_size=c, behaviors=behaviors, seed=seed, capacities=capacities
    )
    for nid in offline:
        ctx.nodes[nid].online = False
    wg = WorkloadGenerator(m=m, users_per_shard=24, rng=np.random.default_rng(seed))
    apply_block(ctx.shard_states, [wg.genesis_tx], ctx.shard_of, ctx.global_utxos)
    batch = wg.generate_batch(txs, cross_shard_ratio=cross, invalid_ratio=invalid)
    ctx.mempools[:] = by_home_shard(batch, m)
    run_committee_configuration(ctx)
    run_semi_commitment_exchange(ctx)
    return ctx


def decides_like_the_reference(ctx, *names):
    """Run phases ``names`` in order, comparing each; returns the last
    report and its decisions."""
    for name in names:
        world = world_of(ctx)
        report = PHASES[name](ctx)
        decided = assert_decides(name, world, report)
    return report, decided


@pytest.mark.parametrize("seed", [1, 4])
def test_faults_shape_decides_like_the_reference(seed):
    """The ``faults`` workload as perfbench builds it: its roster, 30 %
    adversary and fault timeline (leader crashes, a halves partition, churn)."""
    (ledger,) = build(BY_NAME["faults"], seed, 12)
    intra, inter = compare_every_round(ledger)
    ledger.run(12)
    impeachments = [i for _accepted, round_ in intra for i in round_]
    assert len(intra) == len(inter) == 12
    assert {i.kind for i in impeachments} == {"silence", "equivocation"}
    assert {i.succeeded for i in impeachments} == {True, False}
    assert any(decided.accepted for decided in inter)


def impeached_at_seeds(params, adversary, seeds=range(1, 6)):
    """The impeachments of one CycLedger round at each seed, both phases
    compared with the reference (``params(seed=...)`` sizes the run)."""
    impeached = []
    for seed in seeds:
        ledger = create_backend("cycledger", params(seed=seed), adversary=adversary)
        intra, inter = compare_every_round(ledger)
        assert ledger.run_round().block is not None, f"void block at seed {seed}"
        impeached += intra[0][1] + inter[0].impeachments
    return impeached


LEADERS = ["honest", "censoring_leader", "silent_leader", "equivocating_leader"]
VOTERS = ["honest", "contrary_voter", "lazy_voter", "quorum_withholder"]


@st.composite
def sandbox_worlds(draw, ms=(2,), sizes=(4, 5, 8, 9), capacities=(0, 2, 5, 10_000),
                   leaders=LEADERS, voters=VOTERS, crosses=(0.0,)):
    """m committees of C, sizes where the majority boundary is reachable,
    with deterministic behaviours, capacities and offline nodes."""
    m, c = draw(st.sampled_from(ms)), draw(st.sampled_from(sizes))
    keep = draw(st.sampled_from([0.0, 0.5]))
    behaviors = {}
    for nid in range(m * c):
        name = draw(st.sampled_from(voters if nid % c else leaders))
        censors = name == "censoring_leader"
        behaviors[nid] = CensoringLeader(keep) if censors else BEHAVIOR_REGISTRY[name]()
    caps = draw(st.lists(st.sampled_from(capacities), max_size=m * c))
    offline = draw(st.sets(st.integers(0, m * c - 1), max_size=2))
    seed, cross = draw(st.integers(0, 3)), draw(st.sampled_from(crosses))
    return dict(m=m, c=c, behaviors=behaviors, seed=seed, capacities=caps,
                offline=offline, cross=cross)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(world=sandbox_worlds())
def test_sandbox_worlds_decide_like_the_reference(world):
    decides_like_the_reference(staged(**world), "intra")


@settings(max_examples=80, derandomize=True, deadline=None)
@given(world=sandbox_worlds(
    ms=(2, 3), sizes=(4, 5, 8), capacities=(0, 10_000, 10_000),
    leaders=LEADERS + ["inter_silent_leader"], voters=["honest"] * 6 + VOTERS,
    crosses=(0.3, 1.0)), quiet=st.booleans())
def test_cross_shard_worlds_decide_like_the_reference(world, quiet):
    """80 worlds, both phases, about 2 s on a 2-core host.  Capacities are 0
    or unbounded: a budget spent inside a batch of rounds would go in arrival
    order, which the reference leaves out.  A ``quiet`` last committee only
    receives, under a censor the receiving side's audit convicts."""
    if quiet:
        world["behaviors"][(world["m"] - 1) * world["c"]] = CensoringLeader()
    ctx = staged(**world)
    if quiet:
        ctx.mempools[-1] = []
    decides_like_the_reference(ctx, "intra", "inter")
