"""Algorithm 5 / vote rounds: voting, tallying, auditing, recovery.

The decisions (C_R's accepted sets, the impeachments) are compared with the
reference model of ``decision_reference.py``."""

import numpy as np
from test_decision_reference import decides_like_the_reference
from test_decision_reference import staged as setup

from repro.core.intra import run_intra_consensus
from repro.nodes.behaviors import (
    CensoringLeader,
    ContraryVoter,
    EquivocatingLeader,
    LazyVoter,
    SilentLeader,
)


def test_honest_intra_accepts_only_valid():
    _report, (accepted, impeachments) = decides_like_the_reference(setup(), "intra")
    assert sorted(accepted) == [0, 1, 2] and all(accepted.values())
    assert not impeachments


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
    # 3 of 8 contrary voters in committee 0 (0 is leader)
    ctx = setup(behaviors={i: ContraryVoter() for i in (3, 4, 5)}, seed=4)
    _report, (accepted, _) = decides_like_the_reference(ctx, "intra")
    assert accepted[0]


def test_lazy_voters_do_not_block():
    ctx = setup(behaviors={i: LazyVoter() for i in (5, 6)}, seed=5)
    _report, (accepted, _) = decides_like_the_reference(ctx, "intra")
    assert 0 in accepted


def test_capacity_limits_cause_unknowns():
    # every member of committee 0 but its leader can only judge 2 txs
    ctx = setup(capacities=[10_000] + [2] * 7, seed=6)
    report, (accepted, _) = decides_like_the_reference(ctx, "intra")
    round0 = report.rounds[0]
    assert len(round0.txids) > 2 and np.all(round0.matrix[1:, 2:] == 0)
    assert len(accepted[0]) <= 2  # only the leader judged the rest


def test_censoring_leader_detected_and_phase_recovers():
    ctx = setup(behaviors={8: CensoringLeader()}, seed=7)
    _report, (accepted, impeachments) = decides_like_the_reference(ctx, "intra")
    assert impeachments == [(1, "censor", 8, 9, True)]
    assert 1 in accepted and ctx.committees[1].leader == 9


def test_silent_leader_detected_and_phase_recovers():
    ctx = setup(behaviors={0: SilentLeader()}, seed=8)
    _report, (accepted, impeachments) = decides_like_the_reference(ctx, "intra")
    assert impeachments == [(0, "silence", 0, 1, True)]
    assert 0 in accepted and ctx.committees[0].leader == 1


def test_equivocating_leader_detected_in_vote_round():
    ctx = setup(behaviors={16: EquivocatingLeader()}, seed=9)
    _report, (accepted, impeachments) = decides_like_the_reference(ctx, "intra")
    assert impeachments == [(2, "equivocation", 16, 17, True)]
    assert 2 in accepted and ctx.committees[2].leader == 17


def test_empty_mempool_is_fine():
    ctx = setup()
    ctx.mempools[:] = [[], [], []]
    report, (accepted, _) = decides_like_the_reference(ctx, "intra")
    assert accepted == {0: (), 1: (), 2: ()}
    assert all(r.txs == [] for r in report.rounds.values())


def test_tx_budget_respected():
    ctx = setup()
    report = run_intra_consensus(ctx)
    for round_result in report.rounds.values():
        assert len(round_result.txs) <= ctx.params.tx_per_committee
