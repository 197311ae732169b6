"""CycLedger's intra-phase decisions, compared every round with the model of
``decision_reference.py``: C_R's accepted txids per committee and the
impeachments as ``(committee, kind, old_leader, new_leader, succeeded)``.
The state machine of ``test_consensus_conformance.py`` and the phase tests
compare through the helpers here."""

import numpy as np
import pytest
from decision_reference import Committee, Node, World, decide
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.adapter import build
from perfbench.workloads import BY_NAME
from repro import create_backend
from repro.core.committee import run_committee_configuration
from repro.core.intra import run_intra_consensus
from repro.core.pipeline import POST, PRE
from repro.core.sandbox import build_sandbox
from repro.core.semicommit import run_semi_commitment_exchange
from repro.ledger.state import apply_block
from repro.ledger.workload import WorkloadGenerator
from repro.nodes.behaviors import BEHAVIOR_REGISTRY, CensoringLeader


def world_of(ctx):
    """The reference's inputs, read off ``ctx`` as the intra phase starts."""
    ids = {node.pk: nid for nid, node in ctx.nodes.items()}
    nodes = {
        nid: Node(node.behavior.name, getattr(node.behavior, "keep_fraction", None),
                  node.online, node.capacity, ctx.net.partition_group(nid))
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
    tx_per_committee = ctx.params.tx_per_committee
    return World(committees, ctx.referee, nodes, tx_per_committee, pools, views)


def assert_decides(world, report):
    """The intra report's decisions equal the reference's; returns them."""
    accepted, impeachments = decide(world)
    by_cr = report.accepted_by_cr
    assert {k: tuple(tx.txid for tx in txs) for k, txs in by_cr.items()} == accepted
    assert [
        (e.committee, e.kind, e.old_leader, e.new_leader, e.succeeded)
        for e in report.recoveries
    ] == impeachments
    return accepted, impeachments


def compare_every_round(ledger):
    """Compare ``ledger``'s intra phase with the reference every round
    through the pipeline's phase hooks; returns the list of decisions."""
    worlds, decided = [], []
    hook = ledger.pipeline.add_phase_hook
    hook("intra", PRE, lambda ctx, _: worlds.append(world_of(ctx)))
    hook("intra", POST, lambda ctx, _: decided.append(
        assert_decides(worlds.pop(), ctx.phase_reports["intra"])))
    return decided


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
    apply_block(ctx.shard_states, [wg.genesis_tx], ctx.shard_of)
    ctx.global_utxos.restore(wg.genesis_utxos().snapshot())
    batch = wg.generate_batch(txs, cross_shard_ratio=cross, invalid_ratio=invalid)
    ctx.mempools[:] = wg.by_home_shard(batch)
    run_committee_configuration(ctx)
    run_semi_commitment_exchange(ctx)
    return ctx


def intra_decides_like_the_reference(ctx):
    """Run the intra phase and compare; returns the report and decisions."""
    world = world_of(ctx)
    report = run_intra_consensus(ctx)
    return report, assert_decides(world, report)


@pytest.mark.parametrize("seed", [1, 4])
def test_faults_shape_decides_like_the_reference(seed):
    """The ``faults`` workload as perfbench builds it: its roster, 30 %
    adversary and fault timeline (leader crashes, a halves partition, churn)."""
    (ledger,) = build(BY_NAME["faults"], seed, 12)
    decided = compare_every_round(ledger)
    ledger.run(12)
    impeachments = [i for _accepted, round_ in decided for i in round_]
    assert len(decided) == 12
    assert {i.kind for i in impeachments} == {"silence", "equivocation"}
    assert {i.succeeded for i in impeachments} == {True, False}


def impeached_at_seeds(params, adversary, seeds=range(1, 6)):
    """The impeachments of one CycLedger round at each seed, every round
    compared with the reference (``params(seed=...)`` sizes the run)."""
    impeached = []
    for seed in seeds:
        ledger = create_backend("cycledger", params(seed=seed), adversary=adversary)
        decided = compare_every_round(ledger)
        assert ledger.run_round().block is not None, f"void block at seed {seed}"
        impeached += decided[0][1]
    return impeached


LEADERS = ["honest", "censoring_leader", "silent_leader", "equivocating_leader"]
VOTERS = ["honest", "contrary_voter", "lazy_voter", "quorum_withholder"]


@st.composite
def sandbox_worlds(draw):
    """Two committees of C in {4, 5, 8, 9}, so the majority boundary is
    reachable, with deterministic behaviours, capacities and offline nodes."""
    c = draw(st.sampled_from([4, 5, 8, 9]))
    keep = draw(st.sampled_from([0.0, 0.5]))
    behaviors = {}
    for nid in range(2 * c):
        name = draw(st.sampled_from(VOTERS if nid % c else LEADERS))
        censors = name == "censoring_leader"
        behaviors[nid] = CensoringLeader(keep) if censors else BEHAVIOR_REGISTRY[name]()
    capacities = draw(st.lists(st.sampled_from([0, 2, 5, 10_000]), max_size=2 * c))
    offline = draw(st.sets(st.integers(0, 2 * c - 1), max_size=2))
    seed = draw(st.integers(0, 3))
    return dict(c=c, behaviors=behaviors, seed=seed, capacities=capacities,
                offline=offline)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(world=sandbox_worlds())
def test_sandbox_worlds_decide_like_the_reference(world):
    intra_decides_like_the_reference(staged(m=2, **world))
