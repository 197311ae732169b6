"""Witnesses, impeachment, and leader re-selection — Algorithm 6 (§V-D, Fig. 6).

"If a partial set member wants to accuse his/her leader, he/she would
broadcast his/her witness to all members in the committee and ask them to
vote on the impeachment. … If the proposal is approved by more than half of
the validators, the prosecutor will forward the voting result as well as
his/her witness to everyone in the referee committee."

A witness is a pair of messages from which dishonesty can be *derived*, with
the incriminating part signed by the leader (Claim 4's soundness hinges on
that signature).  Witness kinds implemented:

* ``equivocation`` — two leader-signed PROPOSE headers, same sequence
  number, different digests (from Algorithm 3).
* ``bad_semicommit`` — a leader-signed (commitment, member list) pair with
  ``H(list) != commitment`` (Algorithm 4, step 3).
* ``censor`` — leader-signed TXdecSET plus leader-signed VList where some
  transaction has a Yes-majority in the votes but is missing from the
  decided set (Lemma 6's "conceal").
* ``silence`` — not leader-signed (a silent leader signs nothing); instead a
  quorum of member-signed "I received no proposal" statements.  The paper
  leaves the fully-silent case to the phase timeout rules (§IV-C, Lemma 7);
  this quorum form is our concrete realization, and Claim 4 still holds
  because honest members never countersign silence of a leader that did
  propose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.consensus import EquivocationWitness, InsideConsensus, quorum
from repro.core.reputation import punished_reputation
from repro.core.structures import (
    CommitteeSpec,
    RecoveryEvent,
    RoundContext,
    VoteMatrix,
)
from repro.core.tags import Tags
from repro.crypto.commitment import verify_semi_commitment
from repro.crypto.signatures import (
    Signature,
    sign,
    signed_by,
    signers_of,
    verify,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message


@dataclass(frozen=True)
class Witness:
    """A transferable accusation against a committee leader."""

    kind: str
    committee: int
    leader_pk: str
    round_number: int
    evidence: Any


def no_proposal_statement(round_number: int, committee: int, phase: str) -> tuple:
    return ("NO_PROPOSAL", round_number, committee, phase)


def validate_witness(pki, witness: Witness, committee_size: int) -> bool:
    """Objective witness validity — what every honest member checks before
    voting on an impeachment.  Never raises: evidence comes off the network,
    and malformed evidence (wrong arity, a ragged or non-integer vote list,
    parts no statement can carry) is a bad accusation like any other, to be
    ignored (Claim 4)."""
    try:
        return _witness_holds(pki, witness, committee_size)
    except (TypeError, ValueError):
        return False


def _witness_holds(pki, witness: Witness, committee_size: int) -> bool:
    if witness.kind == "equivocation":
        ev = witness.evidence
        return (
            isinstance(ev, EquivocationWitness)
            and ev.leader_pk == witness.leader_pk
            and ev.round_number == witness.round_number
            and ev.is_valid(pki)
        )
    if witness.kind == "bad_semicommit":
        sig, commitment, member_list = witness.evidence
        statement = ("SEMI_COM", witness.round_number, commitment, member_list)
        if not signed_by(pki, sig, statement, witness.leader_pk):
            return False
        return not verify_semi_commitment(commitment, member_list)
    if witness.kind == "censor":
        sig_dec, txids_dec, sig_votes, txids_all, votes = witness.evidence
        dec_statement = ("INTRA_DEC", witness.round_number, witness.committee, txids_dec)
        votes_statement = ("VLIST", witness.round_number, witness.committee, txids_all, votes)
        if not signed_by(pki, sig_dec, dec_statement, witness.leader_pk):
            return False
        if not signed_by(pki, sig_votes, votes_statement, witness.leader_pk):
            return False
        if not isinstance(votes, VoteMatrix):
            votes = VoteMatrix(votes)  # ValueError unless 2-D integers
        matrix = votes.array
        if matrix.shape[1] != len(txids_all):
            return False
        return censored(matrix, txids_all, txids_dec)
    if witness.kind == "silence":
        phase, statements = witness.evidence
        stmt = no_proposal_statement(witness.round_number, witness.committee, phase)
        signers = signers_of(
            pki, (s for s in statements if isinstance(s, Signature)), stmt
        )
        return len(signers) >= quorum(committee_size)
    return False


def censored(matrix: np.ndarray, txids, decided) -> bool:
    """Lemma 6's "conceal": some transaction (column of ``matrix``, one row
    per member) has a quorum of Yes votes but is missing from ``decided``."""
    yes_counts = (matrix == 1).sum(axis=0)
    need = quorum(matrix.shape[0])
    decided = set(decided)
    return any(
        yes_counts[i] >= need and txids[i] not in decided
        for i in range(len(txids))
    )


class _ImpeachmentSession:
    """Event-driven impeachment: broadcast witness, collect votes, escalate
    to C_R, run Algorithm 3 there, announce NEW leader."""

    def __init__(
        self,
        ctx: RoundContext,
        committee: CommitteeSpec,
        accuser: int,
        witness: Witness,
        session: str,
    ) -> None:
        self.ctx = ctx
        self.committee = committee
        self.accuser = accuser
        self.witness = witness
        self.session = session
        self.approvals: dict[str, Signature] = {}
        self.escalated = False
        self.referee_outcome = None
        self.new_leader_announcements: dict[int, set[str]] = {}
        self.final_new_leader: int | None = None

    def _tag(self, base: str) -> str:
        return f"{base}:{self.session}"

    def start(self) -> None:
        ctx = self.ctx
        committee = self.committee
        # One handler per tag for the whole session: the member a delivery
        # is for is its recipient.
        on_impeach, on_new, on_accuse = (
            self._on_impeach, self._on_new, self._on_accuse,
        )
        for mid in committee.members:
            ctx.node(mid).on(self._tag(Tags.IMPEACH), on_impeach)
            ctx.node(mid).on(self._tag(Tags.NEW), on_new)
        ctx.node(self.accuser).on(self._tag(Tags.IMPEACH_VOTE), self._on_vote)
        for rid in ctx.referee:
            ctx.node(rid).on(self._tag(Tags.ACCUSE), on_accuse)
        accuser_node = ctx.node(self.accuser)
        accuser_node.multicast(
            committee.members, self._tag(Tags.IMPEACH), self.witness
        )
        # The accuser trivially approves its own accusation.
        self._register_vote(
            sign(accuser_node.keypair, self._vote_statement(True)), True
        )

    def _vote_statement(self, approve: bool) -> tuple:
        return (
            "IMPEACH_VOTE",
            self.ctx.round_number,
            self.witness.kind,
            self.witness.leader_pk,
            approve,
        )

    def _on_impeach(self, message: "Message") -> None:
        witness = message.payload
        if not isinstance(witness, Witness):
            return
        node = self.ctx.node(message.recipient)
        honest_verdict = validate_witness(
            self.ctx.pki, witness, self.committee.size
        )
        if node.behavior.is_malicious:
            # Colluding members protect a malicious leader and support
            # fabricated accusations against honest ones.
            leader_node = self.ctx.node_by_pk(witness.leader_pk)
            approve = not leader_node.behavior.is_malicious
        else:
            approve = honest_verdict
        if approve:
            vote_sig = sign(node.keypair, self._vote_statement(True))
            node.send(self.accuser, self._tag(Tags.IMPEACH_VOTE), vote_sig)

    def _on_vote(self, message: "Message") -> None:
        sig = message.payload
        if not isinstance(sig, Signature):
            return
        self._register_vote(sig, True)

    def _register_vote(self, sig: Signature, approve: bool) -> None:
        member_pks = {self.ctx.pk_of(mid) for mid in self.committee.members}
        if sig.pk not in member_pks:
            return
        if not verify(self.ctx.pki, sig, self._vote_statement(approve)):
            return
        self.approvals[sig.pk] = sig
        if len(self.approvals) >= quorum(self.committee.size) and not self.escalated:
            self.escalated = True
            accuser_node = self.ctx.node(self.accuser)
            cert = tuple(self.approvals.values())
            accuser_node.multicast(
                self.ctx.referee, self._tag(Tags.ACCUSE), (self.witness, cert)
            )

    def _on_accuse(self, message: "Message") -> None:
        rid = message.recipient
        witness, cert = message.payload
        if self.referee_outcome is not None:
            return
        if not validate_witness(self.ctx.pki, witness, self.committee.size):
            return
        member_pks = {self.ctx.pk_of(mid) for mid in self.committee.members}
        signers = signers_of(
            self.ctx.pki, cert, self._vote_statement(True), members=member_pks
        )
        if len(signers) < quorum(self.committee.size):
            return
        # Algorithm 6: the receiving referee member leads an
        # inside-consensus within C_R on the accusation.
        consensus = InsideConsensus(
            self.ctx,
            self.ctx.referee,
            leader=rid,
            sn=("RESELECT", self.witness.committee, self.accuser),
            payload=(
                "NEW_LEADER",
                self.witness.committee,
                self.ctx.pk_of(self.accuser),
                self.witness.kind,
            ),
            session=f"{self.session}:cr",
        )
        self.referee_outcome = consensus
        consensus.start()
        self.ctx.net.call_after(0.0, lambda: self._announce_if_agreed(rid))

    def _announce_if_agreed(self, rid: int) -> None:
        consensus = self.referee_outcome
        if consensus is None:
            return
        if not consensus.outcome.success:
            # Re-check once the CR consensus traffic drains.
            if self.ctx.net.pending:
                self.ctx.net.call_after(
                    self.ctx.params.net.gamma, lambda: self._announce_if_agreed(rid)
                )
            return
        referee_node = self.ctx.node(rid)
        payload = (self.accuser, consensus.outcome.cert)
        referee_node.multicast(
            self.committee.members, self._tag(Tags.NEW), payload
        )

    def _on_new(self, message: "Message") -> None:
        new_leader, _cert = message.payload
        acks = self.new_leader_announcements.setdefault(new_leader, set())
        sender_pk = self.ctx.pk_of(message.sender)
        if message.sender in self.ctx.referee:
            acks.add(sender_pk)
        if len(acks) >= 1 and self.final_new_leader is None:
            self.final_new_leader = new_leader


def attempt_recovery(
    ctx: RoundContext,
    committee: CommitteeSpec,
    accuser: int,
    witness: Witness,
    session: str,
) -> RecoveryEvent:
    """Run the full impeachment + re-selection flow to quiescence.

    On success the committee's leader is replaced by the accuser (a partial
    set member — Fig. 6's ``cp``), role flags are updated, the old leader is
    recorded as expelled, and the cube-root reputation punishment (§VII-B)
    is applied.
    """
    if accuser not in committee.partial:
        raise ValueError("only partial set members may prosecute (§V-D)")
    old_leader = committee.leader
    session_obj = _ImpeachmentSession(ctx, committee, accuser, witness, session)
    session_obj.start()
    ctx.net.run()
    succeeded = session_obj.final_new_leader == accuser
    event = RecoveryEvent(
        committee=committee.index,
        old_leader=old_leader,
        new_leader=accuser if succeeded else None,
        kind=witness.kind,
        accuser=accuser,
        succeeded=succeeded,
        sim_time=ctx.net.now,
    )
    ctx.recoveries.append(event)
    if succeeded:
        _install_new_leader(ctx, committee, accuser, old_leader)
    return event


def _install_new_leader(
    ctx: RoundContext, committee: CommitteeSpec, new_leader: int, old_leader: int
) -> None:
    committee.replace_leader(new_leader)
    old_node = ctx.node(old_leader)
    old_node.is_leader = False
    new_node = ctx.node(new_leader)
    new_node.is_leader = True
    new_node.is_partial = False
    ctx.expelled_leaders.add(old_leader)
    punish_leader(ctx, old_leader)


def punish_leader(ctx: RoundContext, leader_id: int) -> None:
    """§VII-B: the faulty leader's reputation drops to its cube root
    (:func:`~repro.core.reputation.punished_reputation`)."""
    pk = ctx.pk_of(leader_id)
    ctx.reputation[pk] = punished_reputation(ctx.reputation.get(pk, 0.0))
