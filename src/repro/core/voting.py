"""Shared vote-round machinery for Algorithm 5 and the inter-committee phase.

One *vote round* is the pattern both phases use:

1. the leader broadcasts a signed TXList;
2. every member votes each transaction Yes / No / Unknown and returns a
   signed VList (honest nodes run V up to their capacity);
3. the leader collects votes within the 6Δ window — "those nodes who fail
   to reply in the period are deemed as voting Unknown on all transactions";
4. the leader derives TXdecSET (majority Yes) and runs Algorithm 3 on
   ``(TXdecSET, VList)``;
5. the leader signs the two auditable artifacts — the decided set and the
   vote matrix — that the censorship witness of :mod:`repro.core.recovery`
   is built from.

Silent-leader detection also lives here: members that receive no TXList by
the deadline countersign a NO_PROPOSAL statement to the partial set, which
assembles the quorum evidence for a silence impeachment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.consensus import InsideConsensus
from repro.core.recovery import no_proposal_statement
from repro.core.structures import CommitteeSpec, RoundContext, VoteMatrix
from repro.crypto.hashing import fields_bytes, int8_seq_bytes
from repro.crypto.signatures import (
    Signature,
    encode_statement,
    encode_statement_parts,
    sign,
    sign_encoded,
    signed_by_encoded,
    verify,
    verify_encoded,
)
from repro.ledger.transaction import Transaction
from repro.net.message import payload_size, vote_message_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message

VoteFn = Callable[["RoundContext", int, Sequence[Transaction]], np.ndarray]


def input_side_votes(
    ctx: RoundContext, member_id: int, txs: Sequence[Transaction]
) -> np.ndarray:
    """Member vote on transactions whose inputs live in its own shard."""
    node = ctx.node(member_id)
    return node.behavior.vote(node, txs, node.shard_state, ctx.rng)


def output_side_votes(
    ctx: RoundContext, member_id: int, txs: Sequence[Transaction]
) -> np.ndarray:
    """Receiving-committee vote on cross-shard transactions (output side)."""
    node = ctx.node(member_id)
    return node.behavior.vote_on_outputs(node, txs, ctx.rng)


@dataclass
class VoteRound:
    """Everything one vote round produced."""

    committee: int
    session: str
    txs: list[Transaction] = field(default_factory=list)
    txids: tuple[bytes, ...] = ()
    vlist: VoteMatrix | None = None  # rows follow committee.members order
    decision: np.ndarray | None = None
    majority_txs: list[Transaction] = field(default_factory=list)
    reported_txs: list[Transaction] = field(default_factory=list)
    consensus_success: bool = False
    cert: list[Signature] = field(default_factory=list)
    sig_dec: Signature | None = None
    sig_votes: Signature | None = None
    reported_txids: tuple[bytes, ...] = ()
    #: ``(reported_txids, vlist)``: what Algorithm 3 certified, and the one
    #: object every later sender of the certified result forwards.
    alg3_payload: tuple | None = None
    timed_out: bool = False
    no_proposal_sigs: dict[int, list[Signature]] = field(default_factory=dict)
    replies: int = 0
    equivocation: object | None = None  # EquivocationWitness from Alg. 3

    @property
    def matrix(self) -> np.ndarray | None:
        """The votes as a read-only int8 array."""
        return None if self.vlist is None else self.vlist.array


class VoteRoundSession:
    """Event-driven execution of one vote round."""

    def __init__(
        self,
        ctx: RoundContext,
        committee: CommitteeSpec,
        txs: Sequence[Transaction],
        session: str,
        vote_fn: VoteFn,
        phase_name: str,
        leader_proposes_override: bool | None = None,
    ) -> None:
        self.leader_proposes_override = leader_proposes_override
        self.ctx = ctx
        self.committee = committee
        self.txs = list(txs)
        self.txids = tuple(tx.txid for tx in self.txs)
        self.session = session
        # One string per message kind, shared by every registration and
        # send of the session.
        self._tag_txlist = f"TX_LIST:{session}"
        self._tag_no_proposal = f"NO_PROPOSAL:{session}"
        self._tag_vote = f"VOTE:{session}"
        self._tag_artifact = f"ARTIFACT:{session}"
        self.vote_fn = vote_fn
        self.phase_name = phase_name
        self.result = VoteRound(
            committee=committee.index,
            session=session,
            txs=list(self.txs),
            txids=self.txids,
        )
        self._votes: dict[int, np.ndarray] = {}
        self._member_set = frozenset(committee.members)
        # Every member verifies the leader's signature over the SAME
        # TX_LIST statement; encode each distinct statement once per
        # session instead of once per member.
        self._enc_txlist: dict[tuple, bytes] = {}
        # Every VOTE statement of the session shares its head.
        self._vote_head = fields_bytes(
            "VOTE", ctx.round_number, committee.index, session
        )
        self._tallied = False
        self._proposal_seen: set[int] = set()
        self._alg3: InsideConsensus | None = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        ctx = self.ctx
        committee = self.committee
        leader_node = ctx.node(committee.leader)
        # One handler per tag for the whole session: the member a delivery
        # is for is its recipient.
        on_txlist, on_no_proposal = self._on_txlist, self._on_no_proposal
        for mid in committee.members:
            node = ctx.node(mid)
            node.on(self._tag_txlist, on_txlist)
            if mid in committee.partial:
                node.on(self._tag_no_proposal, on_no_proposal)
        leader_node.on(self._tag_vote, self._on_vote)
        deadline = ctx.params.vote_window
        proposes = (
            self.leader_proposes_override
            if self.leader_proposes_override is not None
            else leader_node.behavior.proposes_txlist(leader_node)
        )
        if proposes and leader_node.online:
            statement = ("TX_LIST", ctx.round_number, committee.index, self.txids)
            sig = sign(leader_node.keypair, statement)
            # One payload object and one recursive size computation for the
            # whole fan-out, not one per member (the TXList is O(D) to
            # size, so per-member sizing was an O(c·D) hidden quadratic).
            txlist_payload = (self.txs, sig)
            txlist_size = payload_size(txlist_payload)
            leader_node.multicast(
                committee.members,
                self._tag_txlist,
                txlist_payload,
                size=txlist_size,
            )
            # The leader votes too (it is a member, Alg. 5 line 21).
            self._votes[committee.leader] = self.vote_fn(
                ctx, committee.leader, self.txs
            )
            self.result.replies += 1
            ctx.net.call_after(deadline, self._tally)
        else:
            # Members will notice the silence at the deadline.
            ctx.net.call_after(deadline, self._silence_deadline)

    # -- member side --------------------------------------------------------
    def _on_txlist(self, message: "Message") -> None:
        mid = message.recipient
        txs, sig = message.payload
        leader_pk = self.ctx.pk_of(self.committee.leader)
        txids = self.txids if txs is self.txs else tuple(tx.txid for tx in txs)
        enc = self._enc_txlist.get(txids)
        if enc is None:
            enc = encode_statement(
                ("TX_LIST", self.ctx.round_number, self.committee.index, txids)
            )
            self._enc_txlist[txids] = enc
        if not signed_by_encoded(self.ctx.pki, sig, enc, leader_pk):
            return
        if mid in self._proposal_seen:
            return
        self._proposal_seen.add(mid)
        node = self.ctx.node(mid)
        votes = tuple(self.vote_fn(self.ctx, mid, txs).tolist())
        vector = int8_seq_bytes(votes)
        vote_sig = sign_encoded(node.keypair, self._vote_enc(votes, vector))
        node.send(
            self.committee.leader,
            self._tag_vote,
            (mid, votes, vote_sig),
            # exact ints, as the vector's encoding checked: a closed form
            size=None if vector is None else vote_message_size(len(votes)),
        )

    def _vote_enc(self, votes: Sequence[int], vector: bytes | None) -> bytes:
        """Signing bytes of ``("VOTE", r, k, session, tuple(votes))``, given
        ``vector = int8_seq_bytes(votes)``: the session's head and the
        vector, or the generic encoding when a vote is not an int in int8
        range (a ``True``-for-``1`` alias among them)."""
        if vector is None:
            r, k = self.ctx.round_number, self.committee.index
            return encode_statement(("VOTE", r, k, self.session, tuple(votes)))
        return encode_statement_parts((self._vote_head, vector))

    # -- leader side --------------------------------------------------------
    def _on_vote(self, message: "Message") -> None:
        if self._tallied:
            return  # replies after the 6Δ window count as Unknown
        mid, votes, vote_sig = message.payload
        if mid not in self._member_set or mid in self._votes:
            return  # a member's first valid vote stands (replies = members)
        enc = self._vote_enc(votes, int8_seq_bytes(votes))
        if not verify_encoded(self.ctx.pki, vote_sig, enc):
            return
        if vote_sig.pk != self.ctx.pk_of(mid):
            return
        if len(votes) != len(self.txs):
            return
        self._votes[mid] = np.asarray(votes, dtype=np.int8)
        self.result.replies += 1

    def _tally(self) -> None:
        if self._tallied:
            return
        self._tallied = True
        ctx = self.ctx
        committee = self.committee
        C = committee.size
        D = len(self.txs)
        matrix = np.zeros((C, D), dtype=np.int8)
        for row, mid in enumerate(committee.members):
            votes = self._votes.get(mid)
            if votes is not None:
                matrix[row, : len(votes)] = votes
        yes_counts = (matrix == 1).sum(axis=0)
        decision = np.where(yes_counts > C / 2, 1, -1).astype(np.int8)
        majority = [tx for tx, d in zip(self.txs, decision) if d == 1]
        leader_node = ctx.node(committee.leader)
        vlist = VoteMatrix(matrix)
        matrix = vlist.array  # read-only from here on
        reported = leader_node.behavior.assemble_txdec(leader_node, majority, matrix)
        reported_txids = tuple(tx.txid for tx in reported)
        self.result.vlist = vlist
        self.result.decision = decision
        self.result.majority_txs = majority
        self.result.reported_txs = list(reported)
        self.result.reported_txids = reported_txids
        self.result.alg3_payload = (reported_txids, vlist)
        ctx.metrics.record_storage(committee.leader, int(matrix.size) + D)
        # Algorithm 3 on (TXdecSET, VList).
        self._alg3 = InsideConsensus(
            ctx,
            committee.members,
            leader=committee.leader,
            sn=("VOTEROUND", self.session),
            payload=self.result.alg3_payload,
            session=f"{self.session}:alg3",
        )
        self._alg3.start()
        # Sign the auditable artifacts (used by censorship witnesses).
        r, k = ctx.round_number, committee.index
        self.result.sig_dec = sign(
            leader_node.keypair, ("INTRA_DEC", r, k, reported_txids)
        )
        self.result.sig_votes = sign(
            leader_node.keypair,
            ("VLIST", r, k, self.txids, vlist),
        )
        # Broadcast the artifacts so partial members can audit.
        artifact = (
            reported_txids,
            self.result.sig_dec,
            self.txids,
            vlist,
            self.result.sig_votes,
        )
        leader_node.multicast(committee.partial, self._tag_artifact, artifact)

    # -- silence handling ---------------------------------------------------
    def _silence_deadline(self) -> None:
        """Leader sent nothing: members countersign NO_PROPOSAL statements."""
        self.result.timed_out = True
        ctx = self.ctx
        committee = self.committee
        stmt = no_proposal_statement(
            ctx.round_number, committee.index, self.phase_name
        )
        for mid in committee.members:
            node = ctx.node(mid)
            if mid in self._proposal_seen or not node.online:
                continue
            if node.behavior.is_malicious:
                continue  # colluders will not help impeach their leader
            statement_sig = sign(node.keypair, stmt)
            node.multicast(committee.partial, self._tag_no_proposal, statement_sig)
            if mid in committee.partial:
                self.result.no_proposal_sigs.setdefault(mid, []).append(
                    statement_sig
                )

    def _on_no_proposal(self, message: "Message") -> None:
        sig = message.payload
        stmt = no_proposal_statement(
            self.ctx.round_number, self.committee.index, self.phase_name
        )
        if not verify(self.ctx.pki, sig, stmt):
            return
        self.result.no_proposal_sigs.setdefault(message.recipient, []).append(sig)

    # -- completion ----------------------------------------------------------
    def finish(self) -> VoteRound:
        """Collect the Algorithm 3 outcome after the network quiesced."""
        if self._alg3 is not None:
            self.result.consensus_success = self._alg3.outcome.success
            self.result.cert = self._alg3.outcome.cert
            if self._alg3.outcome.equivocation is not None:
                self.result.consensus_success = False
                self.result.equivocation = self._alg3.outcome.equivocation
        return self.result

    def release(self) -> None:
        """Unregister this session's and its Algorithm 3 session's handlers
        (call after :meth:`finish`; the :class:`VoteRound` stands alone)."""
        tags = (self._tag_txlist, self._tag_no_proposal, self._tag_vote)
        nodes = self.ctx.nodes
        for mid in self.committee.members:
            nodes[mid].off(tags)
        if self._alg3 is not None:
            self._alg3.release()


def run_vote_rounds(
    ctx: RoundContext,
    work: Sequence[tuple[CommitteeSpec, Sequence[Transaction], str, VoteFn, str]],
) -> list[VoteRound]:
    """Run several vote rounds concurrently on the shared network: all
    committees' sessions share one simulated clock and interleave.

    The network drains before this returns, so every session is released
    here: a phase that runs several batches (intra and its retries, the
    inter sending and receiving sides) holds one batch's state at a time.
    """
    sessions = [
        VoteRoundSession(ctx, committee, txs, session, vote_fn, phase)
        for committee, txs, session, vote_fn, phase in work
    ]
    for session in sessions:
        session.start()
    ctx.net.run()
    results = [session.finish() for session in sessions]
    for session in sessions:
        session.release()
    return results
