"""Semi-commitment exchanging — Algorithm 4 (§IV-B, §V-D).

1. Each leader unites the member list ``S``, computes
   ``SEMI_COM_k = H(S)``, and sends ``(SEMI_COM, S)`` signed to every
   referee member and to its own partial set.
2. The referee committee checks that every listed member is registered and
   that the commitment is valid, reaches inside-consensus on the set of
   valid semi-commitments, transmits it to all key members, "and expel[s]
   the cheating leaders afterward".
3. Every partial-set member cross-checks the commitment accepted by C_R
   against the member list its leader claimed and its own locally
   maintained list; any mismatch is a witness and triggers the recovery
   procedure of :mod:`repro.core.recovery`.

The recommended 8Δ delay before that cross-check is not a timer: every step
drains the network (``ctx.net.run()``), so step 3 starts once all claims and
all C_R announcements have been delivered, however long that took.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.consensus import InsideConsensus
from repro.core.recovery import Witness, attempt_recovery
from repro.core.structures import RecoveryEvent, RoundContext
from repro.core.tags import Tags
from repro.crypto.commitment import (
    canonical_member_list,
    semi_commitment,
    superset_consistent,
    verify_semi_commitment,
)
from repro.crypto.signatures import encode_statement, sign, signed_by_encoded
from repro.net.message import payload_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message


@dataclass
class SemiCommitReport:
    """Outcome of the semi-commitment exchange."""

    accepted: dict[int, bytes] = field(default_factory=dict)
    cheaters_detected: list[int] = field(default_factory=list)
    recoveries: list[RecoveryEvent] = field(default_factory=list)


class _SemiCommitSession:
    def __init__(self, ctx: RoundContext) -> None:
        self.ctx = ctx
        # referee-side: received claims per committee: (commitment, list, sig)
        self.claims: dict[int, dict[int, tuple]] = {}
        # partial-side: what each partial member heard from its leader
        self.partial_view: dict[int, tuple | None] = {}
        # partial-side: commitment announced by C_R
        self.cr_announced: dict[int, dict[int, bytes]] = {}
        # Every referee verifies the same leader-signed SEMI_COM statement;
        # encode each distinct claim once per session.  Keyed by the full
        # statement content, so a Byzantine leader varying the list under
        # one commitment can never alias a cache slot.
        self._enc_claims: dict[tuple, bytes] = {}

    def start(self) -> None:
        ctx = self.ctx
        # One handler per tag and role for the whole session: the member a
        # delivery is for is its recipient.
        on_claim_referee, on_claim_partial, on_announce, on_announce_leader = (
            self._on_claim_referee, self._on_claim_partial, self._on_announce,
            self._on_announce_leader,
        )
        for rid in ctx.referee:
            ctx.node(rid).on(Tags.SEMI_COM, on_claim_referee)
        for committee in ctx.committees:
            for pid in committee.partial:
                ctx.node(pid).on(Tags.SEMI_COM, on_claim_partial)
                ctx.node(pid).on(Tags.SEMI_COM_SET, on_announce)
            ctx.node(committee.leader).on(Tags.SEMI_COM_SET, on_announce_leader)
        for committee in ctx.committees:
            self._leader_send(committee.index)

    def _leader_send(self, k: int) -> None:
        ctx = self.ctx
        committee = ctx.committees[k]
        leader = ctx.node(committee.leader)
        true_list = canonical_member_list(leader.member_list)
        true_commitment = semi_commitment(true_list)
        commitment, claimed_list = leader.behavior.semi_commitment_claim(
            leader, true_commitment, true_list
        )
        statement = ("SEMI_COM", ctx.round_number, commitment, claimed_list)
        sig = sign(leader.keypair, statement)
        payload = (k, commitment, claimed_list, sig)
        size = payload_size(payload)
        leader.multicast(
            [*ctx.referee, *committee.partial], Tags.SEMI_COM, payload, size=size
        )
        # Leaders also note down all other committees' commitments once C_R
        # redistributes them — O(m) storage (Table II).

    def _on_claim_referee(self, message: "Message") -> None:
        k, commitment, claimed_list, sig = message.payload
        committee = self.ctx.committees[k]
        leader_pk = self.ctx.pk_of(committee.leader)
        statement = ("SEMI_COM", self.ctx.round_number, commitment, claimed_list)
        try:
            enc = self._enc_claims.get(statement)
            if enc is None:
                enc = encode_statement(statement)
                self._enc_claims[statement] = enc
        except TypeError:  # unhashable crafted list: encode directly
            enc = encode_statement(statement)
        if not signed_by_encoded(self.ctx.pki, sig, enc, leader_pk):
            return
        self.claims.setdefault(message.recipient, {})[k] = (
            commitment, claimed_list, sig,
        )

    def _on_claim_partial(self, message: "Message") -> None:
        self.partial_view[message.recipient] = message.payload

    def _on_announce(self, message: "Message") -> None:
        announced: dict[int, bytes] = message.payload
        self.cr_announced.setdefault(message.recipient, {}).update(announced)

    def _on_announce_leader(self, message: "Message") -> None:
        """Leaders only store the announced set (O(m), booked at phase end)."""

    # -- referee-side validation after claims arrive ------------------------
    def referee_validate_and_announce(self, report: SemiCommitReport) -> None:
        """Steps 2 of Algorithm 4, run once claims have quiesced."""
        ctx = self.ctx
        lead_referee = ctx.referee[0]
        claims = self.claims.get(lead_referee, {})
        valid: dict[int, bytes] = {}
        for k, (commitment, claimed_list, _sig) in sorted(claims.items()):
            registered = all(
                ctx.pki.is_registered(pk) for pk, _addr in claimed_list
            )
            binding = verify_semi_commitment(commitment, claimed_list)
            if registered and binding:
                valid[k] = commitment
            else:
                report.cheaters_detected.append(k)
        # Inside-consensus within C_R on the valid set (each referee node
        # would lead its own check; one session establishes the certificate).
        consensus = InsideConsensus(
            ctx,
            ctx.referee,
            leader=lead_referee,
            sn=("SEMI_COM_SET", ctx.round_number),
            payload=tuple(sorted((k, v) for k, v in valid.items())),
            session="semicommit:cr",
        )
        consensus.start()
        ctx.net.run()
        if consensus.outcome.success:
            report.accepted = dict(valid)
            ctx.semi_commitments.update(valid)
            for k, (commitment, claimed_list, _sig) in claims.items():
                if k in valid:
                    ctx.member_lists[k] = tuple(claimed_list)
            # Algorithm 4 line 17: EVERY referee member transmits the valid
            # set to every leader/key member — the O(m²) intermediary
            # traffic Table II attributes to C_R members.
            announcement = dict(valid)
            announcement_size = payload_size(announcement)
            key_members = [
                kid
                for committee in ctx.committees
                for kid in committee.key_members
            ]
            for rid in ctx.referee:
                ctx.node(rid).multicast(
                    key_members,
                    Tags.SEMI_COM_SET,
                    announcement,
                    size=announcement_size,
                )
            ctx.net.run()

    # -- partial-set cross-check (step 3) -----------------------------------
    def partial_crosscheck(self, report: SemiCommitReport) -> None:
        ctx = self.ctx
        for committee in list(ctx.committees):
            for pid in committee.partial:
                node = ctx.node(pid)
                if node.behavior.is_malicious or not node.online:
                    continue
                view = self.partial_view.get(pid)
                if view is None:
                    continue  # silent leader: handled by phase timeout rules
                k, commitment, claimed_list, sig = view
                local = ctx.node(pid).member_list
                consistent = (
                    verify_semi_commitment(commitment, claimed_list)
                    and superset_consistent(claimed_list, local)
                    and self.cr_announced.get(pid, {}).get(k) == commitment
                )
                if consistent:
                    continue
                witness = Witness(
                    kind="bad_semicommit",
                    committee=k,
                    leader_pk=ctx.pk_of(committee.leader),
                    round_number=ctx.round_number,
                    evidence=(sig, commitment, tuple(claimed_list)),
                )
                event = attempt_recovery(
                    ctx, committee, pid, witness, session=f"semirec:{k}:{pid}"
                )
                report.recoveries.append(event)
                if event.succeeded:
                    # The new leader "needs to make a new semi-commitment of
                    # the committee via the semi-commitment exchanging
                    # protocol".
                    self._leader_send(k)
                    ctx.net.run()
                    self.referee_validate_and_announce(report)
                break  # one recovery per committee per round


def run_semi_commitment_exchange(ctx: RoundContext) -> SemiCommitReport:
    """Execute Algorithm 4 across all committees."""
    ctx.metrics.set_phase("semicommit")
    report = SemiCommitReport()
    session = _SemiCommitSession(ctx)
    session.start()
    ctx.net.run()
    session.referee_validate_and_announce(report)
    session.partial_crosscheck(report)
    # Storage bookkeeping: every leader stores all m commitments (O(m));
    # every referee member stores the member lists it received (O(m·c)).
    for committee in ctx.committees:
        ctx.metrics.record_storage(committee.leader, len(report.accepted))
    for rid in ctx.referee:
        claimed = session.claims.get(rid, {})
        ctx.metrics.record_storage(
            rid, sum(len(entry[1]) for entry in claimed.values())
        )
    return report
