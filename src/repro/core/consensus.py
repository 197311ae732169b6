"""Inside-committee consensus — Algorithm 3 (§IV-B, Fig. 3).

Three synchronous steps:

1. **PROPOSE** — the leader multicasts ``(r, sn, H(M), M)`` signed.
2. **ECHO** — each member verifies the digest, broadcasts a signed
   ``(r, sn, H(M), i)`` ECHO *and relays the leader-signed PROPOSE header*
   to all members.
3. **CONFIRM** — a member that holds the leader's PROPOSE plus identical
   ECHOes from more than half the committee sends a signed CONFIRM (with
   its EchoList) back to the leader; the leader returns the SigList once
   more than half the members confirmed.

Equivocation ("proposed different messages to different nodes") is caught in
step 2: relayed PROPOSE headers carry the leader's signature, so any member
holding two leader-signed headers with the same ``(r, sn)`` and different
digests owns a transferable witness; it broadcasts STOP with the witness and
the consensus aborts (a partial-set member then starts the recovery
procedure, see :mod:`repro.core.recovery`).

The resulting SigList is a *certificate*: anyone can verify that more than
half of a known member set signed CONFIRM over the digest
(:func:`verify_certificate`) — this is what leaders forward to C_R and to
other committees, and what the semi-commitment scheme anchors to a member
list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.crypto.hashing import H, canonical_bytes, fields_bytes
from repro.crypto.signatures import (
    Signature,
    encode_statement,
    encode_statement_parts,
    sign_encoded,
    signed_by,
    signed_by_encoded,
    signers_of,
    verify_encoded,
)
from repro.net.message import payload_size, sig_list_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.structures import RoundContext
    from repro.net.message import Message
    from repro.net.simulator import TalliedRun

_NEVER = float("inf")


@dataclass(frozen=True)
class EquivocationWitness:
    """Two leader-signed PROPOSE headers, same (r, sn), different digests.

    Exactly the witness shape of §V-D: a pair of messages signed by the
    leader from which dishonesty can be derived.
    """

    leader_pk: str
    round_number: int
    sn: Any
    digest_a: bytes
    sig_a: Signature
    digest_b: bytes
    sig_b: Signature

    def is_valid(self, pki) -> bool:
        if self.digest_a == self.digest_b:
            return False
        header_a = ("PROPOSE", self.round_number, self.sn, self.digest_a)
        header_b = ("PROPOSE", self.round_number, self.sn, self.digest_b)
        return signed_by(pki, self.sig_a, header_a, self.leader_pk) and signed_by(
            pki, self.sig_b, header_b, self.leader_pk
        )


@dataclass
class ConsensusOutcome:
    """What one Algorithm 3 run produced."""

    success: bool = False
    payload: Any = None
    digest: bytes | None = None
    cert: list[Signature] = field(default_factory=list)
    equivocation: EquivocationWitness | None = None
    confirms: int = 0


def consensus_digest(payload: Any) -> bytes:
    return H("ALG3", payload)


def confirm_statement(round_number: int, sn: Any, digest: bytes) -> tuple:
    return ("CONFIRM", round_number, sn, digest)


def quorum(size: int) -> int:
    """The paper's one rule, "more than half" of ``size``: the fewest votes,
    ECHOes, CONFIRMs, countersignatures or approvals that carry a judgement."""
    return size // 2 + 1


def verify_certificate(
    pki,
    member_pks: Sequence[str],
    round_number: int,
    sn: Any,
    digest: bytes,
    cert: Sequence[Signature],
) -> bool:
    """Check a SigList: a quorum of ``member_pks`` signed CONFIRM over digest.

    Duplicate or foreign signatures are discarded, so a malicious leader
    cannot pad a certificate (Lemma 6's "cannot fabricate a consensus
    result").
    """
    statement = confirm_statement(round_number, sn, digest)
    signers = signers_of(pki, cert, statement, members=set(member_pks))
    return len(signers) >= quorum(len(member_pks))


class InsideConsensus:
    """One Algorithm 3 session, event-driven over the network simulator.

    Usage: construct, :meth:`start`, run the network (possibly alongside
    other sessions), then read :attr:`outcome`.  ``session`` must be unique
    per concurrent run — it namespaces the message tags so independent
    committees (and the referee committee's parallel checks) never cross
    wires.
    """

    def __init__(
        self,
        ctx: "RoundContext",
        members: Sequence[int],
        leader: int,
        sn: Any,
        payload: Any,
        session: str,
    ) -> None:
        if leader not in set(members):
            raise ValueError("leader must be one of the members")
        self.ctx = ctx
        self.members = list(members)
        self.leader = leader
        self.sn = sn
        self.payload = payload
        self.session = session
        # One string per message kind, shared by every member's handler
        # registration and every send of the session.
        self._tag_propose = f"PROPOSE:{session}"
        self._tag_echo = f"ECHO:{session}"
        self._tag_stop = f"STOP:{session}"
        self._tag_confirm = f"CONFIRM:{session}"
        self._tags = (
            self._tag_propose, self._tag_echo, self._tag_stop, self._tag_confirm,
        )
        self.r = ctx.round_number
        self.C = len(self.members)
        self.need = quorum(self.C)
        self.outcome = ConsensusOutcome()
        # Per-member state
        self._proposed: dict[int, tuple[bytes, Signature]] = {}
        self._seen_headers: dict[int, dict[bytes, Signature]] = {
            mid: {} for mid in self.members
        }
        self._echoes: dict[int, dict[bytes, dict[str, Signature]]] = {
            mid: {} for mid in self.members
        }
        self._confirmed: set[int] = set()
        self._stopped: set[int] = set()
        # The count of the session's ECHOes when its leader signed one
        # digest (see :class:`_EchoTally`); None: every ECHO is delivered.
        self._tally: _EchoTally | None = None
        # Leader state
        self._confirm_sigs: dict[str, Signature] = {}
        self._member_pks = frozenset(ctx.pk_of(mid) for mid in self.members)
        # Payload-identity digest memo: every PROPOSE delivery used to
        # recompute the full-payload digest (O(C) canonical encodings of an
        # O(D) payload per session — the top profile hotspot at large n).
        # Digests are memoized by payload *identity*; holding the payload
        # reference keeps ids stable.  Honest sessions have exactly one
        # entry; an equivocating leader adds one per variant, capped below.
        self._digest_memo: list[tuple[Any, bytes]] = []
        # ECHO verdicts by packet identity (see :meth:`_echo_verdict`), and
        # leader-header verdicts by signature identity and digest (see
        # :meth:`_header_verdict`).
        self._echo_memo: dict[int, tuple[tuple, tuple[bool, bool]]] = {}
        self._header_memo: dict[tuple[int, bytes], tuple[Signature, bool]] = {}
        # Encoded-statement memos: within one session every member signs or
        # verifies the same ECHO statement and CONFIRM statement per digest
        # — O(C²) scalar sign/verify calls would re-run the canonical
        # encoding each time.  (The PROPOSE header is encoded where it is
        # signed and where a header verdict misses: once or twice a session.)
        self._enc_echo: dict[tuple[bytes, int], bytes] = {}
        self._enc_confirm: dict[bytes, bytes] = {}
        # Every ECHO statement of the session shares its head.
        self._echo_head = fields_bytes("ECHO", self.r, sn)

    _DIGEST_MEMO_MAX = 8

    def _payload_digest(self, payload: Any) -> bytes:
        """``consensus_digest`` with an identity memo (same value, computed
        once per distinct payload object instead of once per delivery)."""
        for seen, digest in self._digest_memo:
            if seen is payload:
                return digest
        digest = consensus_digest(payload)
        if len(self._digest_memo) < self._DIGEST_MEMO_MAX:
            self._digest_memo.append((payload, digest))
        return digest

    def _echo_verdict(self, packet: tuple) -> tuple[bool, bool]:
        """``(echo_ok, header_ok)`` for one ECHO packet: the ECHO signature
        verifies under the key of the member the packet names, and the
        relayed PROPOSE header is signed by the leader.

        Both are pure in the packet, and an ECHO fan-out delivers one packet
        object to all C−1 handlers, so the verdict is memoised by packet
        *identity* — every check still runs, once per distinct object.  The
        memo holds the packet, so its ``id`` cannot be recycled for another
        tuple while the entry lives; an equal-but-distinct packet (a sender
        crafting one per recipient) is verified on its own.  Past the cap
        packets are verified on every delivery.
        """
        entry = self._echo_memo.get(id(packet))
        if entry is not None and entry[0] is packet:
            return entry[1]
        echo_sig, digest, sender_id, relayed_propose_sig = packet
        pki = self.ctx.pki
        echo_ok = echo_sig.pk == self.ctx.pk_of(sender_id) and verify_encoded(
            pki, echo_sig, self._echo_enc(digest, sender_id)
        )
        verdict = (echo_ok, echo_ok and self._header_verdict(relayed_propose_sig, digest))
        if len(self._echo_memo) < 2 * self.C:
            self._echo_memo[id(packet)] = (packet, verdict)
        return verdict

    def _header_verdict(self, sig: Signature, digest: bytes) -> bool:
        """Whether ``sig`` is the leader's signature over the PROPOSE header
        of ``digest``.

        Every member checks the same leader ``Signature`` object over the
        same header, once on its PROPOSE and again in every ECHO that relays
        it, so the verdict is kept per session by the signature's identity
        and the digest; the entry holds the signature, so its ``id`` cannot
        be recycled.  An equal-but-distinct signature is checked on its own;
        past the cap every header is checked on every ask.
        """
        key = (id(sig), digest)
        entry = self._header_memo.get(key)
        if entry is not None and entry[0] is sig:
            return entry[1]
        ok = signed_by_encoded(
            self.ctx.pki, sig, self._header_enc(digest), self.ctx.pk_of(self.leader)
        )
        if len(self._header_memo) < 2 * self.C:
            self._header_memo[key] = (sig, ok)
        return ok

    # -- encoded statements -----------------------------------------------
    def _header_enc(self, digest: bytes) -> bytes:
        return encode_statement(("PROPOSE", self.r, self.sn, digest))

    def _echo_enc(self, digest: bytes, sender_id: int) -> bytes:
        key = (digest, sender_id)
        enc = self._enc_echo.get(key)
        if enc is None:
            # the bytes of encode_statement(("ECHO", r, sn, digest, sender_id))
            enc = encode_statement_parts(
                (self._echo_head, canonical_bytes(digest), canonical_bytes(sender_id))
            )
            self._enc_echo[key] = enc
        return enc

    def _confirm_enc(self, digest: bytes) -> bytes:
        enc = self._enc_confirm.get(digest)
        if enc is None:
            enc = encode_statement(confirm_statement(self.r, self.sn, digest))
            self._enc_confirm[digest] = enc
        return enc

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        # One handler per message kind for the whole session, registered on
        # every member: the member a delivery is for is its recipient.
        on_propose, on_echo, on_stop = (
            self._on_propose, self._echo_handler(), self._on_stop,
        )
        for mid in self.members:
            node = self.ctx.node(mid)
            node.on(self._tag_propose, on_propose)
            node.on(self._tag_echo, on_echo)
            node.on(self._tag_stop, on_stop)
        self.ctx.node(self.leader).on(self._tag_confirm, self._on_confirm)
        self._leader_propose()

    def release(self) -> None:
        """Unregister the session's handlers from its members' mailboxes
        and drop its tally.  Call once the network has drained: no delivery
        can reach them again, and without them nothing keeps the session's
        per-member tables or its ECHO fan-outs alive."""
        nodes = self.ctx.nodes
        for mid in self.members:
            nodes[mid].off(self._tags)
        self._tally = None

    def _leader_propose(self) -> None:
        leader_node = self.ctx.node(self.leader)
        recipients = [mid for mid in self.members if mid != self.leader]
        variants = leader_node.behavior.propose_payloads(
            leader_node, recipients, self.payload
        )
        if variants is None:
            variants = {rid: self.payload for rid in recipients}
        # One signature, one packet tuple and one recursive size per
        # distinct digest, not per recipient: an honest leader proposes one
        # payload to the whole set (a single sign + size), an equivocating
        # leader pays once per variant.  Recipients sharing a digest share
        # byte-equal payloads, so reusing the first packet is stream-exact.
        # Consecutive recipients of one packet form one fan-out (an honest
        # leader: a single multicast), which keeps the send order — and so
        # every seq and jitter draw — that of a per-recipient loop.
        sig_by_digest: dict[bytes, Signature] = {}
        packet_by_digest: dict[bytes, tuple[tuple, int]] = {}
        fanouts: list[tuple[tuple[tuple, int], list[int]]] = []
        for rid in recipients:
            m = variants.get(rid, self.payload)
            if m is ...:
                continue  # silent toward this member
            digest = self._payload_digest(m)
            entry = packet_by_digest.get(digest)
            if entry is None:
                sig = sign_encoded(leader_node.keypair, self._header_enc(digest))
                sig_by_digest[digest] = sig
                packet = (sig, digest, m)
                entry = (packet, payload_size(packet))
                packet_by_digest[digest] = entry
            if not fanouts or fanouts[-1][0] is not entry:
                fanouts.append((entry, []))
            fanouts[-1][1].append(rid)
        for (packet, size), run in fanouts:
            leader_node.multicast(run, self._tag_propose, packet, size=size)
        # The leader is also a member (Alg. 3 line 11: "any member i,
        # including leader l"): it accepts its own proposal and broadcasts
        # its ECHO like everyone else.
        own_digest = self._payload_digest(self.payload)
        own_sig = sig_by_digest.get(own_digest)
        if own_sig is None:
            own_sig = sign_encoded(
                leader_node.keypair, self._header_enc(own_digest)
            )
        self._proposed[self.leader] = (own_digest, own_sig)
        self._seen_headers[self.leader][own_digest] = own_sig
        if set(sig_by_digest) <= {own_digest} and self.need > 1:
            self._tally = _EchoTally(self.ctx, self.members, self.need)
        echo_sig = sign_encoded(
            leader_node.keypair, self._echo_enc(own_digest, self.leader)
        )
        echo_packet = (echo_sig, own_digest, self.leader, own_sig)
        echo_size = payload_size(echo_packet)
        leader_node.multicast(
            recipients, self._tag_echo, echo_packet, size=echo_size,
            tally=self._tally_for(echo_packet),
        )
        self._record_echo(self.leader, own_digest, self.leader, echo_sig)

    # -- member handlers ---------------------------------------------------
    def _on_propose(self, message: "Message") -> None:
        mid = message.recipient
        if mid in self._stopped:
            return
        if self._tally is not None:
            self._catch_up(mid)
        node = self.ctx.node(mid)
        sig, digest, payload = message.payload
        if not self._header_verdict(sig, digest):
            return  # forged or mis-signed: ignore
        if self._payload_digest(payload) != digest:
            return  # digest does not match the message body
        self._note_header(mid, digest, sig)
        if mid in self._proposed:
            return  # duplicate PROPOSE; equivocation was handled above
        self._proposed[mid] = (digest, sig)
        if not node.behavior.echoes(node):
            return  # Byzantine member withholding participation
        echo_sig = sign_encoded(node.keypair, self._echo_enc(digest, mid))
        # Broadcast ECHO + relay the leader-signed header (not the body:
        # "the digest helps to mitigate the burden on the channel").
        echo_packet = (echo_sig, digest, mid, sig)
        echo_size = payload_size(echo_packet)
        node.multicast(
            self.members, self._tag_echo, echo_packet, size=echo_size,
            tally=self._tally_for(echo_packet),
        )
        self._record_echo(mid, digest, mid, echo_sig)
        self._maybe_confirm(mid)

    def _echo_handler(self):
        """The session's ECHO handler: Algorithm 3's O(C²) step, so one
        closure over the session's state, with the steps that cannot change
        anything skipped rather than called and returned from.

        In a tallied session (see :class:`_EchoTally`) it is called only
        for a member's quorum crossing and for ECHOes from outside the
        tally, and first files the tallied ECHOes that reached the member
        before this one.  Every delivery is judged by the identity memo or,
        on a miss, the full :meth:`_echo_verdict`.  The relayed leader
        header is audited on every valid ECHO — before anything that may
        return — but only when it can matter: a digest this member already
        holds as its only header changes nothing in :meth:`_note_header`.
        A member that has confirmed has nothing left to count, so it stops
        after the audit (a late second header still makes it raise STOP).
        And the member's count can only reach the quorum on an ECHO for its
        own proposed digest, so :meth:`_maybe_confirm` runs for those alone;
        ECHOes that reach quorum before the PROPOSE are confirmed by the
        PROPOSE handler.
        """
        nodes = self.ctx.nodes
        stopped = self._stopped
        confirmed = self._confirmed
        memo = self._echo_memo
        seen_headers = self._seen_headers
        echoes = self._echoes
        proposed = self._proposed
        need = self.need

        def handler(message: "Message") -> None:
            mid = message.recipient
            if mid in stopped:
                return
            if self._tally is not None:
                self._catch_up(mid)
            packet = message.payload
            entry = memo.get(id(packet))
            if entry is not None and entry[0] is packet:
                echo_ok, header_ok = entry[1]
            else:
                echo_ok, header_ok = self._echo_verdict(packet)
            if not echo_ok:
                return
            echo_sig, digest, _sender_id, relayed_propose_sig = packet
            # The relayed PROPOSE header lets every member audit the leader.
            if header_ok:
                seen = seen_headers[mid]
                if digest not in seen or len(seen) > 1:
                    self._note_header(mid, digest, relayed_propose_sig)
            if mid in confirmed:
                return
            node = nodes[mid]
            if not node.behavior.echoes(node):
                return
            held = echoes[mid]
            by_digest = held.get(digest)
            if by_digest is None:
                held[digest] = by_digest = {}
            by_digest[echo_sig.pk] = echo_sig
            if len(by_digest) >= need:
                own = proposed.get(mid)
                if own is not None and own[0] == digest:
                    self._maybe_confirm(mid)

        return handler

    def _tally_for(self, packet: tuple) -> "_EchoTally | None":
        """The tally an ECHO multicast is sent with: the session's, for a
        packet that passes its checks (they are pure in the packet, so they
        are judged here, once); None sends it message by message."""
        if self._tally is not None and self._echo_verdict(packet)[1]:
            return self._tally
        return None

    def _catch_up(self, mid: int) -> None:
        """Do what the ECHO handler would have done with each tallied ECHO
        that reached ``mid`` before the event being processed: note its
        leader header if new and, at a member that echoes, file its
        signature.  (At a confirmed member neither changes anything.)"""
        if mid in self._confirmed:
            return
        tally = self._tally
        rows = tally.arrived(mid)
        if not rows:
            return
        # Every tallied ECHO relays the one leader header.
        _echo_sig, digest, _sender_id, relayed_propose_sig = (
            tally.fan_outs[rows[0]].message.payload
        )
        if digest not in self._seen_headers[mid]:
            self._note_header(mid, digest, relayed_propose_sig)
        node = self.ctx.nodes[mid]
        if node.behavior.echoes(node):
            held = self._echoes[mid]
            by_digest = held.get(digest)
            if by_digest is None:
                held[digest] = by_digest = {}
            sigs = tally.sigs
            for row in rows:
                echo_sig = sigs[row]
                by_digest[echo_sig.pk] = echo_sig

    def _note_header(self, mid: int, digest: bytes, sig: Signature) -> None:
        """Track leader-signed headers; two different digests = witness."""
        seen = self._seen_headers[mid]
        if digest not in seen:
            seen[digest] = sig
        if len(seen) >= 2 and self.outcome.equivocation is None:
            (d_a, s_a), (d_b, s_b) = list(seen.items())[:2]
            witness = EquivocationWitness(
                leader_pk=self.ctx.pk_of(self.leader),
                round_number=self.r,
                sn=self.sn,
                digest_a=d_a,
                sig_a=s_a,
                digest_b=d_b,
                sig_b=s_b,
            )
            self.outcome.equivocation = witness
            node = self.ctx.node(mid)
            if node.behavior.echoes(node):
                # "he/she informs all members of the committee immediately
                # to stop the consensus process."
                node.multicast(self.members, self._tag_stop, witness)
                self._stopped.add(mid)

    def _on_stop(self, message: "Message") -> None:
        witness: EquivocationWitness = message.payload
        if not isinstance(witness, EquivocationWitness):
            return
        if (
            witness.leader_pk != self.ctx.pk_of(self.leader)
            or witness.round_number != self.r
            or witness.sn != self.sn
        ):
            return  # another session's witness: it proves nothing here
        if not witness.is_valid(self.ctx.pki):
            return  # invalid alarm: ignore (Claim 4 — no framing)
        if self.outcome.equivocation is None:
            self.outcome.equivocation = witness
        self._stopped.add(message.recipient)

    def _record_echo(
        self, holder: int, digest: bytes, sender_id: int, echo_sig: Signature
    ) -> None:
        held = self._echoes[holder]
        by_digest = held.get(digest)
        if by_digest is None:
            held[digest] = by_digest = {}
        by_digest[echo_sig.pk] = echo_sig

    def _maybe_confirm(self, mid: int) -> None:
        if mid in self._confirmed or mid in self._stopped:
            return
        proposed = self._proposed.get(mid)
        if proposed is None:
            return
        digest, _ = proposed
        echoes = self._echoes[mid].get(digest, {})
        if len(echoes) < self.need:
            return
        node = self.ctx.node(mid)
        self._confirmed.add(mid)
        confirm_sig = sign_encoded(node.keypair, self._confirm_enc(digest))
        echo_list = list(echoes.values())
        if mid == self.leader:
            self._accept_confirm(confirm_sig, digest)
        else:
            # The echo list is ⌊C/2⌋+1 signatures: sized in closed form
            # instead of walked once per member.
            node.send(
                self.leader,
                self._tag_confirm,
                (confirm_sig, digest, echo_list),
                size=payload_size((confirm_sig, digest))
                + sig_list_size(len(echo_list)),
            )

    # -- leader handler ----------------------------------------------------
    def _on_confirm(self, message: "Message") -> None:
        confirm_sig, digest, _echo_list = message.payload
        self._accept_confirm(confirm_sig, digest)

    def _accept_confirm(self, confirm_sig: Signature, digest: bytes) -> None:
        expected_digest = self._payload_digest(self.payload)
        if digest != expected_digest:
            return
        if not verify_encoded(
            self.ctx.pki, confirm_sig, self._confirm_enc(digest)
        ):
            return
        if confirm_sig.pk not in self._member_pks:
            return
        self._confirm_sigs[confirm_sig.pk] = confirm_sig
        self.outcome.confirms = len(self._confirm_sigs)
        if len(self._confirm_sigs) >= self.need and not self.outcome.success:
            self.outcome.success = True
            self.outcome.payload = self.payload
            self.outcome.digest = expected_digest
            self.outcome.cert = list(self._confirm_sigs.values())

    # -- convenience -------------------------------------------------------------
    def run(self) -> ConsensusOutcome:
        """Start and drive the network to quiescence (single-session use)."""
        self.start()
        self.ctx.net.run()
        return self.outcome


class _EchoTally:
    """Algorithm 3's ECHO step as a count, for a session whose leader
    signed one digest.

    Then every ECHO the session sends is a member's valid signature over
    that digest relaying the leader's one header (each packet is still
    judged once, when it is sent), and what it does at a recipient depends
    only on when it arrives: before the member crosses its quorum it is
    filed in the member's echo table (and its header noted), after that it
    does nothing.  So both ECHO multicasts are *tallied* (see
    ``Network.multicast``): the fabric draws and counts every delivery as
    before but queues none, and the one ECHO a member acts on — the
    ``q``-th to reach it from the others, which with its own makes a quorum
    — is armed and delivered at its own ``(time, seq)``, so its CONFIRM is
    sent, and draws its jitter, exactly where the message-by-message loop
    sends it.  The ECHOes before it are handed to the session by
    :meth:`arrived`, in arrival order, when the member is next handed a
    message of the session (that crossing, a PROPOSE, an ECHO from outside
    the tally).

    The fan-outs are sorted in when an armed entry comes up (see
    :meth:`_count`): ``order[:, c]`` is then the fan-outs sorted by their
    arrival at member ``c`` (time, then seq), and each recording member's
    crossing — its ``q``-th arrival — is armed.  A fan-out adds arrivals
    only after the loop's position, so until it is sorted in, the earliest
    arrival of the fan-outs not sorted in yet stays armed: no crossing
    they move can come before it.  A crossing that moved earlier after it
    was armed is not due when it comes up.  In an honest session that is
    one count, at the first arrival of the ``q``-th fan-out or a later
    one.  A member records ECHOes if it echoes and is online when the
    session starts; both are read once, here (the library sets them only
    as a round starts).
    """

    def __init__(self, ctx: "RoundContext", members: list[int], need: int) -> None:
        self.net = ctx.net
        self.members = members
        self.q = need - 1
        nodes = ctx.nodes
        self.column = {mid: c for c, mid in enumerate(members)}
        # per member: the seq of its armed crossing, -1 while it has fewer
        # than q arrivals, None once it has crossed or if it records nothing
        self.crossing: list[int | None] = [
            -1 if nodes[mid].online and nodes[mid].behavior.echoes(nodes[mid])
            else None
            for mid in members
        ]
        self.fan_outs: list[TalliedRun] = []
        self.sigs: list[Signature] = []  # each fan-out's ECHO signature
        self.armed: set[int] = set()
        self.wake: tuple[float, int] | None = None
        self.order: np.ndarray | None = None
        # per member: its arrivals, the ones handed to the session, and the
        # ones known to be before the loop's position
        self.arrivals = [0] * len(members)
        self.handed = [0] * len(members)
        self.known = [0] * len(members)

    def add(self, run: "TalliedRun") -> None:
        """A tallied ECHO fan-out was sent: it is sorted in at the next
        armed entry, and its earliest arrival is armed unless an earlier
        one of a fan-out not sorted in yet is.  The first ``q - 1``
        fan-outs arm nothing: of a member's ``q`` earliest arrivals, one
        at least comes from a later fan-out, so no crossing comes before
        the earliest arrival of the ``q``-th fan-out or of one after it."""
        self.fan_outs.append(run)
        self.sigs.append(run.message.payload[0])
        if len(self.fan_outs) < self.q:
            return
        times = run.times
        earliest = min(times)
        k = times.index(earliest)  # on a tie in time, the lowest seq
        key = (earliest, run.seq0 + k)
        if self.wake is None or key < self.wake:
            self.wake = key
            self._arm(run, k)

    def _arm(self, run: "TalliedRun", k: int) -> None:
        seq = run.seq0 + k
        if seq not in self.armed:
            self.armed.add(seq)
            self.net.arm(run, k)

    def _count(self) -> None:
        """Sort every member's arrivals and arm each recording member's
        crossing."""
        runs, members, column = self.fan_outs, self.members, self.column
        size = len(members)
        rows = []
        for run in runs:
            times = run.times
            if len(times) == size - 1:  # all the others, in member order
                at = column[run.message.sender]
                rows.append(times[:at] + [_NEVER] + times[at:])
            else:
                row = [_NEVER] * size
                for mid, time in zip(run.recipients, times):
                    row[column[mid]] = time
                rows.append(row)
        arrivals = np.array(rows)
        # A stable sort along the fan-outs, which are in seq order: ties in
        # time go by seq, as in the heap.
        self.order = order = np.argsort(arrivals, axis=0, kind="stable").astype(
            np.int16 if len(runs) < 2**15 else np.int64
        )
        self.arrivals = np.isfinite(arrivals).sum(axis=0).tolist()
        q = self.q
        if len(runs) < q:
            return
        crossing = self.crossing
        for c, row in enumerate(order[q - 1].tolist()):
            if crossing[c] is None or self.arrivals[c] < q:
                continue
            run = runs[row]
            k = run.recipients.index(members[c])
            crossing[c] = run.seq0 + k
            self._arm(run, k)

    def due(self, run: "TalliedRun", k: int) -> bool:
        """An armed entry came up: it is due if it is its member's
        crossing, and then the member has crossed."""
        if self.wake is not None:
            self._count()
            self.wake = None
        seq = run.seq0 + k
        self.armed.discard(seq)
        c = self.column[run.recipients[k]]
        if self.crossing[c] != seq:
            return False
        self.crossing[c] = None
        self.known[c] = self.q - 1
        return True

    def arrived(self, mid: int) -> list[int]:
        """The fan-outs (indices into :attr:`fan_outs`) of the tallied
        ECHOes that reached ``mid`` before the event being processed and
        were not handed out yet, in arrival order."""
        c = self.column.get(mid)
        if c is None or self.order is None:
            return []
        ranked = self.order[:, c]
        n, known = self.handed[c], self.known[c]
        rows = ranked[n:known].tolist() if known > n else []
        n += len(rows)
        runs, net = self.fan_outs, self.net
        while n < self.arrivals[c]:
            row = int(ranked[n])
            if not net.passed(runs[row], runs[row].recipients.index(mid)):
                break
            rows.append(row)
            n += 1
        self.handed[c] = n
        return rows
