"""Shared phase machinery of the simplified rival backends.

The round loop itself — construction, role assignment, workload admission,
the pipeline drive, settlement and reporting — is
:class:`repro.core.backend.CommitteeSimBackend`, the one driver CycLedger
subclasses too.  :class:`RivalBackend` adds only what the executable
RapidChain and OmniLedger sketches share with each other and not with
CycLedger: leader-only proposals with no recovery, approximated
erasure-coded dissemination, committee vote collection, leader-to-leader
cross-shard routing, and direct block assembly.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.backend import CommitteeSimBackend, PackReport
from repro.core.node import CycNode
from repro.core.structures import CommitteeSpec, RoundContext
from repro.ledger.chain import GENESIS_PREV_HASH, Block
from repro.ledger.state import apply_block
from repro.ledger.utxo import ValidationResult, validate_batch
from repro.ledger.workload import TaggedTx

#: Wire size charged per transaction in a list payload (bytes).
TX_WIRE_BYTES = 96
#: Wire size of a vote / ack / beacon control message (bytes).
CONTROL_WIRE_BYTES = 40


class RivalBackend(CommitteeSimBackend):
    """Phase helpers for simplified executable rival backends.

    Rival protocols in Table I ship without incentives: reputation and
    rewards exist (the result schema expects them) but never move, and the
    driver's default role staging (uniform lotteries, no partial sets) is
    all they need.
    """

    #: chunk count for approximated erasure-coded (IDA-style) dissemination
    dissemination_chunks = 2

    def _leader_proposes(self, leader: CycNode) -> bool:
        """Rival protocols guarantee progress only under honest leaders
        (Table I's dishonest-leader row): a malicious or offline leader
        simply withholds, and there is no recovery procedure."""
        return (
            leader.online
            and not leader.behavior.is_malicious
            and leader.behavior.proposes_txlist(leader)
        )

    def _leader_txlist(
        self, ctx: RoundContext, spec: CommitteeSpec
    ) -> list[TaggedTx]:
        """The leader's validated TXList proposal for its shard.

        Validation runs V against the shard's round-start UTXO view inside
        the leader's per-round capacity budget, so heterogeneous-capacity
        presets cap rival TXLists exactly as they cap CycLedger's.
        """
        leader = ctx.nodes[spec.leader]
        pool = ctx.mempools[spec.index]
        budget = leader.take_budget(len(pool))
        candidates = pool[:budget]
        verdicts = validate_batch(
            [t.tx for t in candidates], ctx.shard_states[spec.index].utxos
        )
        return [
            tagged
            for tagged, verdict in zip(candidates, verdicts)
            if verdict is ValidationResult.VALID
        ]

    def _chunked_multicast(
        self,
        sender: CycNode,
        recipients: Iterable[int],
        tag: str,
        payload: Any,
        total_bytes: int,
    ) -> None:
        """Approximate erasure-coded dissemination: the payload travels as
        :attr:`dissemination_chunks` equal fragments per recipient
        (IDA-gossip's traffic shape without modelling the coding itself).

        One fan-out, recipient-major: exactly the loop of per-chunk sends
        it stands for (the same ``seq``s, jitter draws, hook calls and
        delivery order, and the same traffic totals).  A chunk carries the
        payload alone; the handler counts chunks by recipient.
        """
        chunks = self.dissemination_chunks
        chunk_bytes = max(1, total_bytes // max(1, chunks))
        sender.multicast(
            [r for r in recipients for _ in range(chunks)],
            tag,
            payload,
            size=chunk_bytes,
        )

    def _collect_committee_votes(
        self, ctx: RoundContext, proposals: dict[int, list[TaggedTx]], tag: str
    ) -> dict[int, int]:
        """Members vote on their leader's disseminated proposal.

        A member votes Yes iff it is online, honest, and actually received
        every proposal chunk (so partitions and crashes shrink the Yes
        count through real message loss, not bookkeeping).  Returns
        committee index -> Yes votes, leader's own vote included.
        """
        full = self.dissemination_chunks
        yes_by_committee: dict[int, int] = {}
        votes: dict[int, int] = {}

        def on_vote(msg) -> None:
            """Tally one Yes vote for the committee named in the payload."""
            votes[msg.payload] = votes.get(msg.payload, 0) + 1

        for spec in ctx.committees:
            if spec.index not in proposals:
                continue
            leader = ctx.nodes[spec.leader]
            leader.on(tag, on_vote)
        for spec in ctx.committees:
            if spec.index not in proposals:
                continue
            # A voter holds its shard's UTXO view and the mempool the
            # proposal leaves behind.
            held = (
                ctx.shard_states[spec.index].size()
                + len(ctx.mempools[spec.index])
                - len(proposals[spec.index])
            )
            for mid in spec.members:
                if mid == spec.leader:
                    continue
                node = ctx.nodes[mid]
                if (
                    node.online
                    and not node.behavior.is_malicious
                    and self._chunks_received.get(mid, 0) >= full
                ):
                    node.send(
                        spec.leader, tag, spec.index, size=CONTROL_WIRE_BYTES
                    )
                    ctx.metrics.record_storage(mid, held)
        ctx.net.run()
        for spec in ctx.committees:
            if spec.index not in proposals:
                continue
            leader_vote = 1 if ctx.nodes[spec.leader].online else 0
            yes_by_committee[spec.index] = votes.get(spec.index, 0) + leader_vote
        return yes_by_committee

    def _disseminate_proposals(
        self, ctx: RoundContext, tag: str
    ) -> dict[int, list[TaggedTx]]:
        """Each honest online leader IDA-disseminates its TXList to its
        committee; returns committee index -> proposal.  Also records how
        many chunks each member received (consumed by the vote step)."""
        self._chunks_received: dict[int, int] = {}
        received = self._chunks_received

        def on_chunk(msg) -> None:
            """Count one received proposal chunk for the recipient."""
            received[msg.recipient] = received.get(msg.recipient, 0) + 1

        for spec in ctx.committees:
            for mid in spec.members:
                ctx.nodes[mid].on(tag, on_chunk)
        proposals: dict[int, list[TaggedTx]] = {}
        for spec in ctx.committees:
            leader = ctx.nodes[spec.leader]
            if not self._leader_proposes(leader):
                continue
            txlist = self._leader_txlist(ctx, spec)
            proposals[spec.index] = txlist
            ctx.metrics.record_storage(spec.leader, len(txlist))
            self._chunked_multicast(
                leader,
                spec.members,
                tag,
                spec.index,
                total_bytes=max(1, len(txlist)) * TX_WIRE_BYTES,
            )
        ctx.net.run()
        return proposals

    def _output_shards(self, tagged: TaggedTx) -> list[int]:
        """Shards holding this transaction's non-home outputs."""
        shard_of = self.workload.shard_of
        shards = {shard_of[address] for address, _amount in tagged.tx.outputs}
        shards.discard(tagged.home_shard)
        return sorted(shards)

    def _route_cross_shard(
        self,
        ctx: RoundContext,
        accepted: dict[int, list[TaggedTx]],
        request_tag: str,
        responses: dict[tuple[int, bytes], int],
    ) -> tuple[dict[int, list[TaggedTx]], int]:
        """Shared cross-shard request/filter machinery.

        For every accepted cross-shard transaction the home leader sends
        one ``request_tag`` message (payload ``(home_index, txid)``) to
        each output shard's leader; the caller pre-registers whatever
        handler chain its protocol needs (a direct ack for RapidChain, the
        Atomix lock/proof/unlock legs for OmniLedger) and hands over the
        ``responses`` dict those handlers fill, keyed by the same payload.
        After the network drains, a cross-shard transaction survives only
        if every output shard responded.  Returns the filtered
        per-committee lists and the number of cross-shard attempts.
        """
        leaders = {spec.index: spec.leader for spec in ctx.committees}
        needed: dict[tuple[int, bytes], int] = {}
        started = 0
        for index, txlist in sorted(accepted.items()):
            home_leader = ctx.nodes[leaders[index]]
            for tagged in txlist:
                if not tagged.cross_shard:
                    continue
                outputs = self._output_shards(tagged)
                needed[(index, tagged.tx.txid)] = len(outputs)
                started += 1
                home_leader.multicast(
                    [leaders[out_shard] for out_shard in outputs],
                    request_tag,
                    (index, tagged.tx.txid),
                    size=TX_WIRE_BYTES,
                )
        ctx.net.run()

        final: dict[int, list[TaggedTx]] = {}
        for index, txlist in sorted(accepted.items()):
            kept: list[TaggedTx] = []
            for tagged in txlist:
                if tagged.cross_shard:
                    key = (index, tagged.tx.txid)
                    if responses.get(key, 0) < needed[key]:
                        continue
                kept.append(tagged)
            final[index] = kept
        return final, started

    def _build_block(
        self, ctx: RoundContext, final_lists: dict[int, list[TaggedTx]]
    ) -> PackReport:
        """Assemble the round's block from per-committee final lists, keeping
        what V accepts in order against the global UTXO view, append it to
        the chain, and only then write it to every UTXO view."""
        proposed = [t.tx for index in sorted(final_lists) for t in final_lists[index]]
        ok = iter(validate_batch(proposed, self.global_utxos))
        ordered: list[TaggedTx] = []
        per_committee: dict[int, int] = {}
        for index in sorted(final_lists):
            txs = [t for t in final_lists[index] if next(ok) is ValidationResult.VALID]
            per_committee[index] = len(txs)
            ordered.extend(txs)
        if not ordered:
            return PackReport(block=None, packed=0, per_committee=per_committee)
        block = Block(
            round_number=ctx.round_number,
            prev_hash=self.chain.head.hash if len(self.chain) else GENESIS_PREV_HASH,
            transactions=tuple(t.tx for t in ordered),
            randomness=self.randomness,
            participants=(),
            reputations=(),
            referee=tuple(self._next_referee),
            leaders=tuple(self._next_leaders),
            partial_sets=(),
        )
        self.chain.append(block)
        shard_of = self.workload.shard_of
        apply_block(self.shard_states, block.transactions, shard_of, self.global_utxos)
        return PackReport(
            block=block, packed=len(ordered), per_committee=per_committee
        )
