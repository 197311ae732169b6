"""Behaviour strategies and the adversary controller."""

import numpy as np
import pytest
from tx_builders import make_transfer

from repro.core.sandbox import build_sandbox
from repro.ledger.state import apply_block
from repro.ledger.transaction import make_coinbase
from repro.nodes.adversary import AdversaryConfig, AdversaryController
from repro.nodes.behaviors import (
    BEHAVIOR_REGISTRY,
    Behavior,
    CensoringLeader,
    ContraryVoter,
    EquivocatingLeader,
    HonestBehavior,
    LazyVoter,
    RandomVoter,
    SilentLeader,
)


@pytest.fixture
def voting_setup():
    ctx = build_sandbox(committee_size=6, lam=2)
    state = ctx.shard_states[0]
    genesis = make_coinbase([(f"user-{i}", 100) for i in range(8)])
    apply_block(ctx.shard_states, [genesis], ctx.shard_of, ctx.global_utxos)
    # one valid spend + one overspend
    op = next(iter(state.utxos))
    owner, _amount = state.utxos.get(op)
    valid = make_transfer(op, 100, "user-1", 10, owner)
    from repro.ledger.transaction import Transaction

    invalid = Transaction(inputs=(op,), outputs=(("x", 500),))
    return ctx, state, [valid, invalid]


def test_registry_complete():
    assert "honest" in BEHAVIOR_REGISTRY
    for name, cls in BEHAVIOR_REGISTRY.items():
        assert cls.name == name


def test_honest_votes_match_v(voting_setup, rng):
    ctx, state, txs = voting_setup
    node = ctx.nodes[2]
    votes = HonestBehavior().vote(node, txs, state, rng)
    assert list(votes) == [1, -1]


def test_honest_capacity_unknowns(voting_setup, rng):
    ctx, state, txs = voting_setup
    node = ctx.nodes[2]
    node.capacity = 1
    votes = HonestBehavior().vote(node, txs, state, rng)
    assert list(votes) == [1, 0]


def test_contrary_votes_inverted(voting_setup, rng):
    ctx, state, txs = voting_setup
    node = ctx.nodes[2]
    votes = ContraryVoter().vote(node, txs, state, rng)
    assert list(votes) == [-1, 1]


def test_lazy_votes_all_unknown(voting_setup, rng):
    ctx, state, txs = voting_setup
    votes = LazyVoter().vote(ctx.nodes[2], txs, state, rng)
    assert list(votes) == [0, 0]


def test_random_votes_in_alphabet(voting_setup, rng):
    ctx, state, txs = voting_setup
    votes = RandomVoter().vote(ctx.nodes[2], txs * 20, state, rng)
    assert set(votes) <= {-1, 0, 1}


def test_equivocating_splits_payloads():
    ctx = build_sandbox(committee_size=6, lam=2)
    variants = EquivocatingLeader().propose_payloads(ctx.nodes[0], [1, 2, 3, 4], "M")
    assert len(set(map(str, variants.values()))) == 2


def test_silent_sends_nothing():
    ctx = build_sandbox(committee_size=6, lam=2)
    behavior = SilentLeader()
    variants = behavior.propose_payloads(ctx.nodes[0], [1, 2], "M")
    assert all(v is ... for v in variants.values())
    assert not behavior.proposes_txlist(ctx.nodes[0])
    assert not behavior.forwards_inter(ctx.nodes[0])


def test_censoring_keeps_fraction():
    ctx = build_sandbox(committee_size=6, lam=2)
    kept = CensoringLeader(keep_fraction=0.5).assemble_txdec(
        ctx.nodes[0], list(range(10)), None
    )
    assert kept == list(range(5))
    assert CensoringLeader().assemble_txdec(ctx.nodes[0], list(range(10)), None) == []


def test_honest_output_votes(voting_setup, rng):
    ctx, _, txs = voting_setup
    votes = HonestBehavior().vote_on_outputs(ctx.nodes[2], txs, rng)
    assert list(votes) == [1, 1]  # both have positive outputs


# -- adversary controller --------------------------------------------------------


def test_fraction_respected(rng):
    config = AdversaryConfig(fraction=0.3)
    controller = AdversaryController(config, list(range(100)), rng)
    assert controller.count == 30


def test_zero_fraction(rng):
    controller = AdversaryController(AdversaryConfig(), list(range(10)), rng)
    assert controller.count == 0
    assert isinstance(controller.leader_behavior(0), HonestBehavior)


def test_behavior_assignment(rng):
    config = AdversaryConfig(
        fraction=0.5, leader_strategy="censoring_leader",
        voter_strategy="random_voter",
        strategy_kwargs={"keep_fraction": 0.25},
    )
    controller = AdversaryController(config, list(range(20)), rng)
    corrupted = next(iter(controller.corrupted))
    honest = next(i for i in range(20) if not controller.is_corrupted(i))
    leader_behavior = controller.leader_behavior(corrupted)
    assert isinstance(leader_behavior, CensoringLeader)
    assert leader_behavior.keep_fraction == 0.25
    assert isinstance(controller.voter_behavior(corrupted), RandomVoter)
    assert isinstance(controller.leader_behavior(honest), HonestBehavior)


def test_offline_subset(rng):
    config = AdversaryConfig(fraction=0.5, offline_fraction=0.5)
    controller = AdversaryController(config, list(range(40)), rng)
    assert len(controller.offline) == 10
    assert controller.offline <= controller.corrupted


def test_mild_adaptivity(rng):
    """Corruption moves only by a retarget, and what a node does is read
    from the controller when roles are handed out: a behaviour handed out
    before the retarget stays honest."""
    controller = AdversaryController(AdversaryConfig(fraction=0.1), list(range(20)), rng)
    fresh = next(i for i in range(20) if not controller.is_corrupted(i))
    handed_out = controller.voter_behavior(fresh)
    controller.retarget_nodes([fresh])
    assert controller.corrupted == {fresh}
    assert not handed_out.is_malicious
    assert controller.voter_behavior(fresh).is_malicious


def test_config_validation():
    with pytest.raises(ValueError):
        AdversaryConfig(fraction=1.5)
    with pytest.raises(ValueError):
        AdversaryConfig(leader_strategy="nonexistent")
