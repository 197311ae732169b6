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

from repro.crypto.hashing import H
from repro.crypto.signatures import (
    Signature,
    encode_statement,
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
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


def consensus_digest(payload: Any) -> bytes:
    return H("ALG3", payload)


def confirm_statement(round_number: int, sn: Any, digest: bytes) -> tuple:
    return ("CONFIRM", round_number, sn, digest)


def verify_certificate(
    pki,
    member_pks: Sequence[str],
    round_number: int,
    sn: Any,
    digest: bytes,
    cert: Sequence[Signature],
    threshold: int | None = None,
) -> bool:
    """Check a SigList: > half of ``member_pks`` signed CONFIRM over digest.

    Duplicate or foreign signatures are discarded, so a malicious leader
    cannot pad a certificate (Lemma 6's "cannot fabricate a consensus
    result").
    """
    statement = confirm_statement(round_number, sn, digest)
    signers = signers_of(pki, cert, statement, members=set(member_pks))
    needed = threshold if threshold is not None else len(member_pks) // 2 + 1
    return len(signers) >= needed


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
        # ECHO verdicts by packet identity (see :meth:`_echo_verdict`).
        self._echo_memo: dict[int, tuple[tuple, tuple[bool, bool]]] = {}
        # Encoded-statement memos: within one session every member signs or
        # verifies the same PROPOSE header, ECHO statement and CONFIRM
        # statement per digest — O(C²) scalar sign/verify calls would
        # re-run the canonical encoding each time.  Encoding once per
        # distinct statement and batching the MACs is this module's hot-path
        # optimization (perf case ``micro:mac_verify``).
        self._enc_header: dict[bytes, bytes] = {}
        self._enc_echo: dict[tuple[bytes, int], bytes] = {}
        self._enc_confirm: dict[bytes, bytes] = {}

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
        verdict = (
            echo_ok,
            echo_ok
            and signed_by_encoded(
                pki,
                relayed_propose_sig,
                self._header_enc(digest),
                self.ctx.pk_of(self.leader),
            ),
        )
        if len(self._echo_memo) < 2 * self.C:
            self._echo_memo[id(packet)] = (packet, verdict)
        return verdict

    # -- encoded-statement memos ------------------------------------------
    def _header_enc(self, digest: bytes) -> bytes:
        enc = self._enc_header.get(digest)
        if enc is None:
            enc = encode_statement(("PROPOSE", self.r, self.sn, digest))
            self._enc_header[digest] = enc
        return enc

    def _echo_enc(self, digest: bytes, sender_id: int) -> bytes:
        key = (digest, sender_id)
        enc = self._enc_echo.get(key)
        if enc is None:
            enc = encode_statement(("ECHO", self.r, self.sn, digest, sender_id))
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
        self.outcome.started_at = self.ctx.net.now
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
        """Unregister the session's handlers from its members' mailboxes.
        Call once the network has drained: no delivery can reach them
        again, and without them nothing keeps the session's per-member
        tables alive."""
        nodes = self.ctx.nodes
        for mid in self.members:
            nodes[mid].off(self._tags)

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
        echo_sig = sign_encoded(
            leader_node.keypair, self._echo_enc(own_digest, self.leader)
        )
        echo_packet = (echo_sig, own_digest, self.leader, own_sig)
        echo_size = payload_size(echo_packet)
        leader_node.multicast(
            recipients, self._tag_echo, echo_packet, size=echo_size
        )
        self._record_echo(self.leader, own_digest, self.leader, echo_sig)

    # -- member handlers ---------------------------------------------------
    def _on_propose(self, message: "Message") -> None:
        mid = message.recipient
        if mid in self._stopped:
            return
        node = self.ctx.node(mid)
        sig, digest, payload = message.payload
        leader_pk = self.ctx.pk_of(self.leader)
        if not signed_by_encoded(
            self.ctx.pki, sig, self._header_enc(digest), leader_pk
        ):
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
            self.members, self._tag_echo, echo_packet, size=echo_size
        )
        self._record_echo(mid, digest, mid, echo_sig)
        self._maybe_confirm(mid)

    def _echo_handler(self):
        """The session's ECHO handler: Algorithm 3's O(C²) step, so one
        closure over the session's state, with the steps that cannot change
        anything skipped rather than called and returned from.

        Every delivery is judged by the identity memo or, on a miss, the
        full :meth:`_echo_verdict`.  The relayed leader header is audited on
        every valid ECHO — before anything that may return — but only when
        it can matter: a digest this member already holds as its only header
        changes nothing in :meth:`_note_header`.  A member that has
        confirmed has nothing left to count, so it stops after the audit (a
        late second header still makes it raise STOP).  And the member's
        count can only cross C/2 on an ECHO for its own proposed digest, so
        :meth:`_maybe_confirm` runs for those alone; ECHOes that reach
        quorum before the PROPOSE are confirmed by the PROPOSE handler.
        """
        nodes = self.ctx.nodes
        stopped = self._stopped
        confirmed = self._confirmed
        memo = self._echo_memo
        seen_headers = self._seen_headers
        echoes = self._echoes
        proposed = self._proposed
        half = self.C / 2

        def handler(message: "Message") -> None:
            mid = message.recipient
            if mid in stopped:
                return
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
            if len(by_digest) > half:
                own = proposed.get(mid)
                if own is not None and own[0] == digest:
                    self._maybe_confirm(mid)

        return handler

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
        if len(echoes) <= self.C / 2:
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
        if len(self._confirm_sigs) > self.C / 2 and not self.outcome.success:
            self.outcome.success = True
            self.outcome.payload = self.payload
            self.outcome.digest = expected_digest
            self.outcome.cert = list(self._confirm_sigs.values())
            self.outcome.finished_at = self.ctx.net.now

    # -- convenience -------------------------------------------------------------
    def run(self) -> ConsensusOutcome:
        """Start and drive the network to quiescence (single-session use)."""
        self.start()
        self.ctx.net.run()
        if self.outcome.finished_at == 0.0:
            self.outcome.finished_at = self.ctx.net.now
        return self.outcome
