"""The majority boundary at even and odd committee sizes.

"More than half" of C is C // 2 + 1 members.  ``> C/2`` and ``>= C/2``
differ only at even C, so each judgement is pinned at C = 4, 5, 8, 9 with
the literal quorum, one signer/vote/approval short of it and exactly at it.
"""

import numpy as np
import pytest

from repro.core.consensus import confirm_statement, consensus_digest, verify_certificate
from repro.core.intra import audit_vote_round
from repro.core.recovery import (
    Witness,
    attempt_recovery,
    no_proposal_statement,
    validate_witness,
)
from repro.core.sandbox import build_sandbox
from repro.core.structures import VoteMatrix
from repro.core.voting import VoteRound
from repro.crypto.signatures import sign
from repro.nodes.behaviors import CensoringLeader, ContraryVoter

SIZES = [(4, 3), (5, 3), (8, 5), (9, 5)]  # (C, need)


def _world(C):
    ctx = build_sandbox(committee_size=C, lam=2)
    committee = ctx.committees[0]
    return ctx, committee, [ctx.nodes[mid] for mid in committee.members]


def _yes_column(C, yes):
    """One transaction, ``yes`` Yes votes, the rest Unknown."""
    matrix = np.zeros((C, 1), dtype=np.int8)
    matrix[:yes, 0] = 1
    return VoteMatrix(matrix)


def _censor_witness(leader, C, yes):
    """The leader decided nothing although ``yes`` members voted Yes."""
    txids_all, txids_dec = (b"t1",), ()
    votes = _yes_column(C, yes)
    return Witness(
        kind="censor", committee=0, leader_pk=leader.pk, round_number=1,
        evidence=(
            sign(leader.keypair, ("INTRA_DEC", 1, 0, txids_dec)),
            txids_dec,
            sign(leader.keypair, ("VLIST", 1, 0, txids_all, votes)),
            txids_all,
            votes,
        ),
    )


@pytest.mark.parametrize("C, need", SIZES)
@pytest.mark.parametrize("short", [1, 0], ids=["need-1", "need"])
def test_certificate_at_the_boundary(C, need, short):
    ctx, committee, members = _world(C)
    k = need - short
    digest = consensus_digest("M")
    statement = confirm_statement(1, "sn", digest)
    cert = [sign(node.keypair, statement) for node in members[:k]]
    pks = [node.pk for node in members]
    assert verify_certificate(ctx.pki, pks, 1, "sn", digest, cert) == (k == need)


@pytest.mark.parametrize("C, need", SIZES)
@pytest.mark.parametrize("short", [1, 0], ids=["need-1", "need"])
def test_censor_witness_at_the_boundary(C, need, short):
    ctx, committee, members = _world(C)
    k = need - short
    witness = _censor_witness(members[0], C, k)
    assert validate_witness(ctx.pki, witness, C) == (k == need)


@pytest.mark.parametrize("C, need", SIZES)
@pytest.mark.parametrize("short", [1, 0], ids=["need-1", "need"])
def test_silence_witness_at_the_boundary(C, need, short):
    ctx, committee, members = _world(C)
    k = need - short
    stmt = no_proposal_statement(1, 0, "intra")
    witness = Witness(
        kind="silence", committee=0, leader_pk=members[0].pk, round_number=1,
        evidence=("intra", tuple(sign(n.keypair, stmt) for n in members[1 : k + 1])),
    )
    assert validate_witness(ctx.pki, witness, C) == (k == need)


@pytest.mark.parametrize("C, need", SIZES)
@pytest.mark.parametrize("short", [1, 0], ids=["need-1", "need"])
def test_audit_at_the_boundary(C, need, short):
    ctx, committee, members = _world(C)
    k = need - short
    leader = members[0]
    accuser = committee.partial[0]
    # A leader that reported nothing although k members voted Yes.
    censored = VoteRound(
        committee=0, session="s", txids=(b"t1",), vlist=_yes_column(C, k),
        sig_dec=sign(leader.keypair, ("INTRA_DEC", 1, 0, ())),
    )
    witness = audit_vote_round(ctx, committee, censored, "intra")
    assert (witness is not None and witness.kind == "censor") == (k == need)
    # A leader that proposed nothing, and k countersigned statements.
    stmt = no_proposal_statement(1, 0, "intra")
    silent = VoteRound(
        committee=0, session="s", timed_out=True,
        no_proposal_sigs={
            accuser: [sign(n.keypair, stmt) for n in members[1 : k + 1]]
        },
    )
    witness = audit_vote_round(ctx, committee, silent, "intra")
    assert (witness is not None and witness.kind == "silence") == (k == need)


@pytest.mark.parametrize("C, need", SIZES)
@pytest.mark.parametrize("short", [1, 0], ids=["need-1", "need"])
def test_impeachment_at_the_boundary(C, need, short):
    """A malicious leader's colluders withhold their approval; the accuser
    and the other honest members approve, ``need - short`` in all."""
    colluders = range(need - short + 1, C)  # past the leader and the approvers
    behaviors = {0: CensoringLeader(), **{mid: ContraryVoter() for mid in colluders}}
    ctx = build_sandbox(committee_size=C, lam=2, behaviors=behaviors)
    committee = ctx.committees[0]
    witness = _censor_witness(ctx.nodes[0], C, C)
    event = attempt_recovery(ctx, committee, committee.partial[0], witness, "r")
    assert event.succeeded == (short == 0)
