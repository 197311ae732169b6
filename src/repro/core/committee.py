"""Committee configuration — Algorithm 2 (§IV-A).

Key members (leader + partial set, pre-selected in the previous round) seed
the member list with each other's ``<PK, address>`` pairs.  Every other node
finds its committee with cryptographic sortition (Algorithm 1), announces
itself to the key members (CONFIG), receives the current list (MEM_LIST),
then introduces itself to all listed members it has not met (MEMBER).  Every
announcement carries the VRF ticket, and every recipient verifies it before
admitting the sender — a node cannot join a committee the sortition did not
assign it to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.sortition import SortitionTicket, verify_sortition
from repro.core.structures import RoundContext
from repro.core.tags import Tags

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message


@dataclass
class ConfigReport:
    """Outcome of the configuration phase."""

    full_agreement: dict[int, bool] = field(default_factory=dict)
    rejected_joins: int = 0
    elapsed: float = 0.0


class _ConfigSession:
    """Per-committee configuration state machine."""

    def __init__(self, ctx: RoundContext, committee_index: int) -> None:
        self.ctx = ctx
        self.k = committee_index
        self.committee = ctx.committees[committee_index]
        self.rejected = 0
        # Hoisted per-session indexes: the MEM_LIST/MEMBER handlers run
        # O(c) times each and previously rebuilt these per message (an
        # O(c³)-ish hidden quadratic at large committee sizes).
        self._id_by_pk = {
            ctx.pk_of(mid): mid for mid in self.committee.members
        }
        self._key_pks = frozenset(
            ctx.pk_of(kid) for kid in self.committee.key_members
        )
        # Ticket verification is deterministic per (identity, ticket); every
        # key member (and later every listed member) re-checks the same
        # announcement, so memoize the verdict per session.
        self._verify_cache: dict[tuple, bool] = {}

    def _tag(self, base: str) -> str:
        return f"{base}:cfg:{self.k}"

    def start(self) -> None:
        ctx = self.ctx
        committee = self.committee
        key_members = set(committee.key_members)
        # Key members seed S with all key-member identities (Alg. 2 line 3).
        seed_identities = {ctx.node(kid).identity() for kid in key_members}
        # One handler per tag for the whole session: the member a delivery
        # is for is its recipient.
        on_config, on_mem_list, on_member = (
            self._on_config, self._on_mem_list, self._on_member,
        )
        for mid in committee.members:
            node = ctx.node(mid)
            node.member_list = set(seed_identities) if mid in key_members else {
                node.identity()
            }
            if mid in key_members:
                node.on(self._tag(Tags.CONFIG), on_config)
            node.on(self._tag(Tags.MEM_LIST), on_mem_list)
            node.on(self._tag(Tags.MEMBER), on_member)
        # Non-key members announce themselves to the key members, whose
        # addresses are "already shown in block B^{r-1}".
        for mid in committee.members:
            if mid in key_members:
                continue
            node = ctx.node(mid)
            ticket = getattr(node, "ticket", None)
            node.multicast(
                key_members, self._tag(Tags.CONFIG), (node.identity(), ticket)
            )

    def _verify(self, identity: tuple[str, str], ticket) -> bool:
        if not isinstance(ticket, SortitionTicket):
            return False
        key = (identity, ticket)
        cached = self._verify_cache.get(key)
        if cached is not None:
            return cached
        if ticket.vrf.pk != identity[0]:
            result = False
        elif ticket.committee_id != self.k:
            result = False
        else:
            result = verify_sortition(
                self.ctx.pki,
                ticket,
                self.ctx.round_number,
                self.ctx.randomness,
                self.ctx.params.m,
            )
        self._verify_cache[key] = result
        return result

    def _on_config(self, message: "Message") -> None:
        identity, ticket = message.payload
        node = self.ctx.node(message.recipient)
        if not self._verify(identity, ticket):
            self.rejected += 1
            return
        node.member_list.add(identity)
        # Respond with the current list (Alg. 2 line 10).
        node.send(
            message.sender, self._tag(Tags.MEM_LIST), tuple(node.member_list)
        )

    def _on_mem_list(self, message: "Message") -> None:
        node = self.ctx.node(message.recipient)
        known_before = set(node.member_list)
        node.member_list |= set(message.payload)
        ticket = getattr(node, "ticket", None)
        # Introduce ourselves to newly discovered members (line 19:
        # "all unconnected committee members on the list").  Key members
        # were already contacted via CONFIG, so they are not new.
        key_pks = self._key_pks
        new_ids = {
            identity for identity in node.member_list
            if identity not in known_before
            and identity != node.identity()
            and identity[0] not in key_pks
        }
        targets = [self._node_id_by_pk(pk) for pk, _address in new_ids]
        node.multicast(
            [target for target in targets if target is not None],
            self._tag(Tags.MEMBER),
            (node.identity(), ticket),
        )

    def _on_member(self, message: "Message") -> None:
        identity, ticket = message.payload
        node = self.ctx.node(message.recipient)
        sender_node = self.ctx.node(message.sender)
        if sender_node.is_key_member or self._verify(identity, ticket):
            node.member_list.add(identity)
        else:
            self.rejected += 1

    def _node_id_by_pk(self, pk: str) -> int | None:
        return self._id_by_pk.get(pk)


def run_committee_configuration(ctx: RoundContext) -> ConfigReport:
    """Run Algorithm 2 for every committee in parallel."""
    ctx.metrics.set_phase("config")
    started = ctx.net.now
    sessions = [_ConfigSession(ctx, k) for k in range(len(ctx.committees))]
    for session in sessions:
        session.start()
    ctx.net.run()
    report = ConfigReport(elapsed=ctx.net.now - started)
    for session in sessions:
        report.rejected_joins += session.rejected
        committee = session.committee
        expected = {ctx.node(mid).identity() for mid in committee.members}
        honest_views = [
            ctx.node(mid).member_list == expected
            for mid in committee.members
            if not ctx.node(mid).behavior.is_malicious and ctx.node(mid).online
        ]
        report.full_agreement[committee.index] = all(honest_views)
        # Storage: every member retains the member list (O(c) common,
        # O(c²) aggregate for key members per Table II).
        for mid in committee.members:
            ctx.metrics.record_storage(mid, len(ctx.node(mid).member_list))
    return report
