"""Witness validation, impeachment and Algorithm 6 (Claims 3–4)."""

import numpy as np
import pytest

from repro.core.consensus import EquivocationWitness, InsideConsensus, consensus_digest
from repro.core.recovery import (
    Witness,
    attempt_recovery,
    no_proposal_statement,
    punish_leader,
    validate_witness,
)
from repro.core.sandbox import build_sandbox
from repro.crypto.signatures import sign
from repro.nodes.behaviors import ContraryVoter, EquivocatingLeader, FramingPartialMember


def make_equivocation_ctx():
    ctx = build_sandbox(committee_size=9, lam=2, behaviors={0: EquivocatingLeader()})
    out = InsideConsensus(
        ctx, ctx.committees[0].members, leader=0, sn=1, payload="M", session="x"
    ).run()
    witness = Witness(
        kind="equivocation",
        committee=0,
        leader_pk=ctx.pk_of(0),
        round_number=1,
        evidence=out.equivocation,
    )
    return ctx, witness


def test_equivocation_witness_valid():
    ctx, witness = make_equivocation_ctx()
    assert validate_witness(ctx.pki, witness, 9)


def test_recovery_replaces_leader_claim3():
    ctx, witness = make_equivocation_ctx()
    event = attempt_recovery(ctx, ctx.committees[0], 1, witness, session="r")
    assert event.succeeded
    assert ctx.committees[0].leader == 1
    assert 1 not in ctx.committees[0].partial
    assert 0 in ctx.expelled_leaders
    assert ctx.nodes[1].is_leader and not ctx.nodes[0].is_leader


def test_recovery_records_event():
    ctx, witness = make_equivocation_ctx()
    event = attempt_recovery(ctx, ctx.committees[0], 1, witness, session="r")
    assert ctx.recoveries == [event]
    assert event.kind == "equivocation"
    assert event.old_leader == 0 and event.new_leader == 1


def test_framing_fails_claim4():
    ctx = build_sandbox(committee_size=9, lam=2, behaviors={1: FramingPartialMember()})
    InsideConsensus(
        ctx, ctx.committees[0].members, leader=0, sn=1, payload="M", session="x"
    ).run()
    fake = EquivocationWitness(
        leader_pk=ctx.pk_of(0),
        round_number=1,
        sn=1,
        digest_a=consensus_digest("a"),
        sig_a=sign(ctx.nodes[1].keypair, "junk"),
        digest_b=consensus_digest("b"),
        sig_b=sign(ctx.nodes[1].keypair, "junk2"),
    )
    witness = Witness(
        kind="equivocation", committee=0, leader_pk=ctx.pk_of(0),
        round_number=1, evidence=fake,
    )
    assert not validate_witness(ctx.pki, witness, 9)
    event = attempt_recovery(ctx, ctx.committees[0], 1, witness, session="r")
    assert not event.succeeded
    assert ctx.committees[0].leader == 0


def test_framing_fails_even_with_colluding_minority():
    """Malicious members approve the fabricated witness, but honest members
    are the majority so the impeachment never reaches > c/2."""
    behaviors = {1: FramingPartialMember()}
    behaviors.update({i: ContraryVoter() for i in (3, 4, 5)})
    ctx = build_sandbox(committee_size=9, lam=2, behaviors=behaviors)
    fake = EquivocationWitness(
        leader_pk=ctx.pk_of(0), round_number=1, sn=1,
        digest_a=consensus_digest("a"), sig_a=sign(ctx.nodes[1].keypair, "j"),
        digest_b=consensus_digest("b"), sig_b=sign(ctx.nodes[1].keypair, "k"),
    )
    witness = Witness(
        kind="equivocation", committee=0, leader_pk=ctx.pk_of(0),
        round_number=1, evidence=fake,
    )
    event = attempt_recovery(ctx, ctx.committees[0], 1, witness, session="r")
    assert not event.succeeded


def test_accuser_must_be_partial_member():
    ctx, witness = make_equivocation_ctx()
    with pytest.raises(ValueError):
        attempt_recovery(ctx, ctx.committees[0], 5, witness, session="r")


def test_bad_semicommit_witness():
    ctx = build_sandbox(committee_size=6, lam=2)
    leader = ctx.nodes[0]
    member_list = (("pkA", "a"), ("pkB", "b"))
    bad_commitment = b"\x13" * 32  # != H(member_list)
    statement = ("SEMI_COM", 1, bad_commitment, member_list)
    sig = sign(leader.keypair, statement)
    witness = Witness(
        kind="bad_semicommit", committee=0, leader_pk=leader.pk,
        round_number=1, evidence=(sig, bad_commitment, member_list),
    )
    assert validate_witness(ctx.pki, witness, 6)
    # an honest commitment is not a witness
    from repro.crypto.commitment import semi_commitment

    good = semi_commitment(member_list)
    sig2 = sign(leader.keypair, ("SEMI_COM", 1, good, member_list))
    honest = Witness(
        kind="bad_semicommit", committee=0, leader_pk=leader.pk,
        round_number=1, evidence=(sig2, good, member_list),
    )
    assert not validate_witness(ctx.pki, honest, 6)


def test_censor_witness():
    ctx = build_sandbox(committee_size=5, lam=2)
    leader = ctx.nodes[0]
    txids_all = (b"t1", b"t2", b"t3")
    votes = tuple(tuple(row) for row in np.ones((5, 3), dtype=int))  # all Yes
    txids_dec = (b"t1",)  # t2, t3 censored
    sig_dec = sign(leader.keypair, ("INTRA_DEC", 1, 0, txids_dec))
    sig_votes = sign(leader.keypair, ("VLIST", 1, 0, txids_all, votes))
    witness = Witness(
        kind="censor", committee=0, leader_pk=leader.pk, round_number=1,
        evidence=(sig_dec, txids_dec, sig_votes, txids_all, votes),
    )
    assert validate_witness(ctx.pki, witness, 5)
    # complete decided set is not censorship
    sig_dec_full = sign(leader.keypair, ("INTRA_DEC", 1, 0, txids_all))
    complete = Witness(
        kind="censor", committee=0, leader_pk=leader.pk, round_number=1,
        evidence=(sig_dec_full, txids_all, sig_votes, txids_all, votes),
    )
    assert not validate_witness(ctx.pki, complete, 5)


def test_censor_witness_reads_the_matrix_value():
    """The evidence an honest auditor files carries the VoteMatrix itself;
    it validates exactly like the tuple-of-rows form the leader's signature
    also covers."""
    from repro.core.structures import VoteMatrix

    ctx = build_sandbox(committee_size=5, lam=2)
    leader = ctx.nodes[0]
    txids_all = (b"t1", b"t2", b"t3")
    rows = tuple(tuple(row) for row in np.ones((5, 3), dtype=int))
    sig_dec = sign(leader.keypair, ("INTRA_DEC", 1, 0, (b"t1",)))
    sig_votes = sign(leader.keypair, ("VLIST", 1, 0, txids_all, rows))
    for votes in (rows, VoteMatrix(rows)):
        witness = Witness(
            kind="censor", committee=0, leader_pk=leader.pk, round_number=1,
            evidence=(sig_dec, (b"t1",), sig_votes, txids_all, votes),
        )
        assert validate_witness(ctx.pki, witness, 5)


@pytest.mark.parametrize(
    "kind, evidence",
    [
        ("censor", (1, 2)),  # wrong arity
        ("censor", ()),
        ("censor", None),
        ("bad_semicommit", (1,)),
        ("bad_semicommit", 7),
        ("silence", ("intra",)),
        ("silence", ("intra", 5)),  # statements not iterable
        ("equivocation", (1, 2)),
    ],
)
def test_malformed_witness_is_invalid_not_fatal(kind, evidence):
    """Claim 4: a bad accusation is ignored; it never raises inside an
    honest validator."""
    ctx = build_sandbox(committee_size=5, lam=2)
    witness = Witness(
        kind=kind, committee=0, leader_pk=ctx.pk_of(0), round_number=1,
        evidence=evidence,
    )
    assert validate_witness(ctx.pki, witness, 5) is False


@pytest.mark.parametrize(
    "votes",
    [
        ((1, 1, 1), (1, 1)),  # ragged
        ((1, 1, 1), (1, "x", 1)),  # non-integer
        ((1.0, 1.0, 1.0),) * 5,  # floats
        ((1, 1, 1), (1, None, 1)),
        (1, 1, 1),  # one row, not a matrix
        ((1, 1, 300),) * 5,  # not a vote
        ((1, 1),) * 5,  # width != len(txids_all)
        object(),  # nothing a statement can carry
    ],
)
def test_censor_witness_with_bad_vote_list_is_invalid_not_fatal(votes):
    """Even when the leader really signed the malformed vote list."""
    ctx = build_sandbox(committee_size=5, lam=2)
    leader = ctx.nodes[0]
    txids_all = (b"t1", b"t2", b"t3")
    sig_dec = sign(leader.keypair, ("INTRA_DEC", 1, 0, (b"t1",)))
    try:
        sig_votes = sign(leader.keypair, ("VLIST", 1, 0, txids_all, votes))
    except TypeError:
        sig_votes = sig_dec  # un-encodable: no signature can cover it
    witness = Witness(
        kind="censor", committee=0, leader_pk=leader.pk, round_number=1,
        evidence=(sig_dec, (b"t1",), sig_votes, txids_all, votes),
    )
    assert validate_witness(ctx.pki, witness, 5) is False


def test_silence_witness_needs_quorum():
    ctx = build_sandbox(committee_size=9, lam=2)
    stmt = no_proposal_statement(1, 0, "intra")
    sigs = tuple(sign(ctx.nodes[i].keypair, stmt) for i in range(5))
    witness = Witness(
        kind="silence", committee=0, leader_pk=ctx.pk_of(0),
        round_number=1, evidence=("intra", sigs),
    )
    assert validate_witness(ctx.pki, witness, 9)
    minority = Witness(
        kind="silence", committee=0, leader_pk=ctx.pk_of(0),
        round_number=1, evidence=("intra", sigs[:4]),
    )
    assert not validate_witness(ctx.pki, minority, 9)
    # duplicated signatures do not inflate the quorum
    padded = Witness(
        kind="silence", committee=0, leader_pk=ctx.pk_of(0),
        round_number=1, evidence=("intra", (sigs[0],) * 9),
    )
    assert not validate_witness(ctx.pki, padded, 9)


def test_unknown_witness_kind_invalid():
    ctx = build_sandbox(committee_size=5, lam=2)
    witness = Witness(
        kind="mystery", committee=0, leader_pk=ctx.pk_of(0),
        round_number=1, evidence=(),
    )
    assert not validate_witness(ctx.pki, witness, 5)


def test_cube_root_punishment():
    ctx = build_sandbox(committee_size=5, lam=2)
    pk = ctx.pk_of(0)
    ctx.reputation[pk] = 27.0
    punish_leader(ctx, 0)
    assert ctx.reputation[pk] == pytest.approx(3.0)
    # negative reputation clamps to zero first
    ctx.reputation[pk] = -5.0
    punish_leader(ctx, 0)
    assert ctx.reputation[pk] == 0.0
