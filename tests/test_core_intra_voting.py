"""Algorithm 5 / vote rounds: voting, tallying, auditing, recovery."""

import numpy as np

from repro.core.committee import run_committee_configuration
from repro.core.intra import run_intra_consensus
from repro.core.sandbox import build_multi_sandbox
from repro.core.semicommit import run_semi_commitment_exchange
from repro.ledger.state import apply_block
from repro.ledger.workload import WorkloadGenerator
from repro.nodes.behaviors import (
    CensoringLeader,
    ContraryVoter,
    EquivocatingLeader,
    LazyVoter,
    SilentLeader,
)


def setup(m=3, c=8, behaviors=None, seed=0, invalid=0.15, cross=0.0, capacities=None):
    ctx = build_multi_sandbox(m=m, committee_size=c, lam=2, behaviors=behaviors, seed=seed)
    if capacities:
        for nid, cap in capacities.items():
            ctx.nodes[nid].capacity = cap
    wg = WorkloadGenerator(m=m, users_per_shard=24, rng=np.random.default_rng(seed))
    apply_block(ctx.shard_states, [wg.genesis_tx])
    batch = wg.generate_batch(70, cross_shard_ratio=cross, invalid_ratio=invalid)
    for k, pool in enumerate(wg.by_home_shard(batch)):
        ctx.mempools[k] = pool
    run_committee_configuration(ctx)
    run_semi_commitment_exchange(ctx)
    return ctx


def tags_of(ctx):
    return {t.tx.txid: t for pool in ctx.mempools for t in pool}


def test_honest_intra_accepts_only_valid():
    ctx = setup()
    report = run_intra_consensus(ctx)
    tags = tags_of(ctx)
    assert report.accepted_by_cr  # every committee reported
    for k, txs in report.accepted_by_cr.items():
        assert txs, f"committee {k} decided nothing"
        for tx in txs:
            assert tags[tx.txid].intended_valid
    # and no valid intra tx in the proposed list was censored
    for k, round_result in report.rounds.items():
        decided = {tx.txid for tx in round_result.reported_txs}
        for txid in round_result.txids:
            if tags[txid].intended_valid:
                assert txid in decided


def test_all_members_replied():
    ctx = setup()
    report = run_intra_consensus(ctx)
    for round_result in report.rounds.values():
        assert round_result.replies == 8
        assert round_result.consensus_success


def test_vote_records_stored_for_reputation():
    ctx = setup()
    run_intra_consensus(ctx)
    assert set(ctx.vote_records) == {0, 1, 2}
    for records in ctx.vote_records.values():
        txids, matrix, decision = records[0]
        assert matrix.shape == (8, len(txids))
        assert decision.shape == (len(txids),)


def test_contrary_minority_outvoted():
    # 3 of 8 contrary voters in committee 0 (ids 2..4; 0 is leader)
    behaviors = {i: ContraryVoter() for i in (3, 4, 5)}
    ctx = setup(behaviors=behaviors, seed=4)
    report = run_intra_consensus(ctx)
    tags = tags_of(ctx)
    for tx in report.accepted_by_cr.get(0, []):
        assert tags[tx.txid].intended_valid


def test_lazy_voters_do_not_block():
    behaviors = {i: LazyVoter() for i in (5, 6)}
    ctx = setup(behaviors=behaviors, seed=5)
    report = run_intra_consensus(ctx)
    assert 0 in report.accepted_by_cr


def test_capacity_limits_cause_unknowns():
    # every member of committee 0 can only judge 2 txs
    caps = {i: 2 for i in range(8)}
    ctx = setup(capacities=caps, seed=6)
    report = run_intra_consensus(ctx)
    round0 = report.rounds[0]
    if len(round0.txids) > 2:
        # columns beyond capacity are all Unknown -> not decided Yes
        assert all(
            round0.decision[i] == -1 for i in range(2, len(round0.txids))
        )
        assert np.all(round0.matrix[:, 2:] == 0)


def test_censoring_leader_detected_and_phase_recovers():
    ctx = setup(behaviors={8: CensoringLeader()}, seed=7)
    report = run_intra_consensus(ctx)
    assert 1 in report.censorship_detected
    assert any(e.committee == 1 and e.succeeded for e in report.recoveries)
    assert 1 in report.retried
    assert 1 in report.accepted_by_cr  # the retry produced a certified set
    assert ctx.committees[1].leader != 8


def test_silent_leader_detected_and_phase_recovers():
    ctx = setup(behaviors={0: SilentLeader()}, seed=8)
    report = run_intra_consensus(ctx)
    assert 0 in report.silence_detected
    assert any(e.committee == 0 and e.succeeded for e in report.recoveries)
    assert 0 in report.accepted_by_cr


def test_equivocating_leader_detected_in_vote_round():
    ctx = setup(behaviors={16: EquivocatingLeader()}, seed=9)
    report = run_intra_consensus(ctx)
    assert 2 in report.equivocation_detected
    assert any(e.committee == 2 and e.succeeded for e in report.recoveries)
    assert 2 in report.accepted_by_cr


def test_empty_mempool_is_fine():
    ctx = setup()
    for k in range(3):
        ctx.mempools[k] = []
    report = run_intra_consensus(ctx)
    for round_result in report.rounds.values():
        assert round_result.txs == []
        assert round_result.consensus_success


def test_tx_budget_respected():
    ctx = setup()
    report = run_intra_consensus(ctx)
    for round_result in report.rounds.values():
        assert len(round_result.txs) <= ctx.params.tx_per_committee
