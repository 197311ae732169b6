"""Edge cases and failure-injection scenarios across modules."""

import numpy as np
from test_decision_reference import decides_like_the_reference, staged

from repro.core.committee import run_committee_configuration
from repro.core.intra import audit_vote_round, first_honest_partial
from repro.core.recovery import Witness, attempt_recovery
from repro.core.sandbox import build_sandbox
from repro.core.semicommit import run_semi_commitment_exchange
from repro.core.voting import VoteRound
from repro.crypto.commitment import semi_commitment
from repro.ledger.workload import WorkloadGenerator
from repro.nodes.behaviors import ContraryVoter, EquivocatingLeader, OfflineNode


def test_unregistered_member_in_claimed_list_detected():
    """Alg. 4 step 2: C_R checks 'all members in any list are registered'."""
    ctx = build_sandbox(m=2, committee_size=8, lam=2)
    run_committee_configuration(ctx)
    # Poison the leader's member list with a ghost identity.
    leader = ctx.node(ctx.committees[0].leader)
    leader.member_list.add(("ghost-pk-never-registered", "addr-ghost"))
    report = run_semi_commitment_exchange(ctx)
    assert 0 in report.cheaters_detected
    # committee 1's honest list went through
    assert 1 in report.accepted


def test_recovery_impossible_with_all_malicious_partials():
    """If every partial member is malicious (prob. (1/3)^λ — the §V-C
    failure event), the phase cannot find an accuser and proceeds without
    recovery rather than crashing."""
    behaviors = {0: EquivocatingLeader(), 1: ContraryVoter(), 2: ContraryVoter()}
    ctx = staged(m=1, c=9, behaviors=behaviors, txs=10, invalid=0.0)
    assert first_honest_partial(ctx, ctx.committees[0]) is None
    _report, (_accepted, impeachments) = decides_like_the_reference(ctx, "intra")
    assert impeachments == []  # detected but unprosecutable
    assert ctx.committees[0].leader == 0  # leader survives (this round)


def test_audit_ignores_insecure_partial_set():
    ctx = build_sandbox(committee_size=6, lam=2,
                        behaviors={1: ContraryVoter(), 2: OfflineNode()})
    ctx.node(2).online = False
    round_result = VoteRound(committee=0, session="s")
    round_result.timed_out = True
    assert audit_vote_round(ctx, ctx.committees[0], round_result, "intra") is None


def test_double_recovery_attempt_same_committee():
    """After a successful recovery, the ex-leader cannot be impeached again
    (a second witness against the *old* leader targets a non-leader)."""
    ctx = build_sandbox(committee_size=9, lam=3, behaviors={0: EquivocatingLeader()})
    from repro.core.consensus import InsideConsensus

    out = InsideConsensus(ctx, ctx.committees[0].members, 0, 1, "M", "s").run()
    witness = Witness(
        kind="equivocation", committee=0, leader_pk=ctx.pk_of(0),
        round_number=1, evidence=out.equivocation,
    )
    first = attempt_recovery(ctx, ctx.committees[0], 1, witness, "r1")
    assert first.succeeded and ctx.committees[0].leader == 1
    # a second prosecution by another partial member with the same witness
    second = attempt_recovery(ctx, ctx.committees[0], 2, witness, "r2")
    # the witness still names the OLD leader; honest members may approve it
    # (it is objectively valid) but the committee's leader is already node 1,
    # so installing the accuser demotes nobody honest: guard the semantics.
    if second.succeeded:
        assert ctx.committees[0].leader == 2
        assert 1 in ctx.expelled_leaders or 0 in ctx.expelled_leaders


def test_workload_multi_input_never_generated():
    """Generator invariant: all generated spends are single-input (keeps
    home-shard routing exact)."""
    wg = WorkloadGenerator(m=3, users_per_shard=16, rng=np.random.default_rng(1))
    batch = wg.generate_batch(60, cross_shard_ratio=0.4, invalid_ratio=0.2)
    for tagged in batch:
        assert len(tagged.tx.inputs) == 1


def test_semicommit_binding_after_recovery_matches_new_list():
    ctx = build_sandbox(m=2, committee_size=8, lam=2)
    run_committee_configuration(ctx)
    report = run_semi_commitment_exchange(ctx)
    for committee in ctx.committees:
        accepted = report.accepted[committee.index]
        members = ctx.member_lists[committee.index]
        assert semi_commitment(members) == accepted


def test_larger_scale_round_smoke():
    """One round at n=240, m=8 (c=29): the simulator and every phase hold up
    at a scale closer to the paper's settings."""
    from repro import CycLedger, ProtocolParams

    params = ProtocolParams(
        n=240, m=8, lam=3, referee_size=8, seed=0,
        users_per_shard=40, tx_per_committee=6, cross_shard_ratio=0.2,
    )
    ledger = CycLedger(params)
    report = ledger.run_round()
    assert report.block is not None
    assert report.packed > 20
    assert report.messages > 50_000  # c² terms dominate
    assert ledger.chain.verify()
