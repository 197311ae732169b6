"""Executable RapidChain-style backend [Zamani et al., CCS'18].

A deliberately simplified but genuinely executable sibling of the analytic
:class:`~repro.baselines.rapidchain.RapidChainModel`: per-shard committees
drawn by sortition, IDA-gossip-approximated block dissemination (the
leader's TXList travels as equal chunks to every member), 1/2-resilient
synchronous intra-committee consensus (accept needs a strict majority of
Yes votes), leader-to-leader cross-shard routing, and a reference
committee (the staged ``referee`` group) that packs the round's block and
gossips it out.

The Table I behaviours fall out of the mechanics rather than being
asserted: a malicious or crashed leader withholds its proposal and there
is no recovery procedure, so that shard contributes nothing this round;
a cross-shard transaction commits only when the home *and* every output
shard leader are honest, online, and mutually reachable — under 1/3
malicious leaders, cross-shard throughput collapses exactly as §II-A
describes.  See ``docs/backends.md`` for the fidelity caveats.
"""

from __future__ import annotations

from repro.backends.base import CONTROL_WIRE_BYTES, TX_WIRE_BYTES, RivalBackend
from repro.core.backend import PackReport, SimRoundReport
from repro.core.pipeline import Phase, PhasePipeline
from repro.core.structures import RoundContext
from repro.ledger.workload import TaggedTx

PHASE_DISSEMINATION = "dissemination"
PHASE_CONSENSUS = "consensus"
PHASE_ROUTING = "routing"
PHASE_BLOCK = "block"


class RapidChainBackend(RivalBackend):
    """Simplified executable RapidChain (backend name ``rapidchain``)."""

    backend_name = "rapidchain"
    pack_phase = PHASE_BLOCK
    #: IDA-gossip approximation: proposals travel as this many chunks.
    dissemination_chunks = 4

    def build_pipeline(self) -> PhasePipeline:
        """The four RapidChain phases: disseminate, vote, route, pack."""
        return PhasePipeline(
            (
                Phase(PHASE_DISSEMINATION, self._phase_dissemination),
                Phase(PHASE_CONSENSUS, self._phase_consensus),
                Phase(PHASE_ROUTING, self._phase_routing),
                Phase(PHASE_BLOCK, self._phase_block),
            )
        )

    # -- phases --------------------------------------------------------------
    def _phase_dissemination(self, ctx: RoundContext) -> dict[int, list[TaggedTx]]:
        """Leaders IDA-disseminate their validated TXLists to their shards."""
        ctx.metrics.set_phase(PHASE_DISSEMINATION)
        return self._disseminate_proposals(ctx, "rc/ida")

    def _phase_consensus(self, ctx: RoundContext) -> dict[int, list[TaggedTx]]:
        """1/2-resilient intra-shard consensus: a proposal is accepted when
        Yes votes (leader included) exceed half the committee."""
        ctx.metrics.set_phase(PHASE_CONSENSUS)
        proposals = ctx.phase_reports[PHASE_DISSEMINATION]
        yes = self._collect_committee_votes(ctx, proposals, "rc/vote")
        accepted: dict[int, list[TaggedTx]] = {}
        for spec in ctx.committees:
            txlist = proposals.get(spec.index)
            if txlist is None:
                continue
            if 2 * yes.get(spec.index, 0) > spec.size:
                accepted[spec.index] = txlist
        ctx.intra_results = accepted
        return accepted

    def _phase_routing(self, ctx: RoundContext) -> dict[int, list[TaggedTx]]:
        """Cross-shard routing: the home leader forwards each cross-shard
        transaction to every output shard's leader, who acknowledges iff
        honest and online.  A transaction stays in the final list only when
        every output shard acknowledged — dropped links (partitions) and
        dishonest leaders both starve it."""
        ctx.metrics.set_phase(PHASE_ROUTING)
        accepted = ctx.phase_reports[PHASE_CONSENSUS]
        acks: dict[tuple[int, bytes], int] = {}

        def on_ack(msg) -> None:
            """Count one output-shard acknowledgement for a routed tx."""
            acks[msg.payload] = acks.get(msg.payload, 0) + 1

        def on_request(msg) -> None:
            """The output-shard leader's ack-or-ignore: honest online
            leaders acknowledge the routed txid."""
            node = ctx.nodes[msg.recipient]
            if node.online and not node.behavior.is_malicious:
                node.send(
                    msg.sender, "rc/xsack", msg.payload,
                    size=CONTROL_WIRE_BYTES,
                )

        for spec in ctx.committees:
            node = ctx.nodes[spec.leader]
            node.on("rc/xs", on_request)
            node.on("rc/xsack", on_ack)

        final, self._routed = self._route_cross_shard(ctx, accepted, "rc/xs", acks)
        ctx.inter_results = final
        return final

    def _phase_block(self, ctx: RoundContext) -> PackReport:
        """The reference committee packs the block: each shard leader sends
        its final list to every referee member; the reference leader (first
        staged referee) assembles whatever actually reached it and gossips
        the block to all nodes in chunks."""
        ctx.metrics.set_phase(PHASE_BLOCK)
        final = ctx.phase_reports[PHASE_ROUTING]
        ref_leader = ctx.referee[0]
        landed: dict[int, list[TaggedTx]] = {}

        def on_final(msg) -> None:
            """Record a shard's final list as it lands at the ref leader."""
            if msg.recipient != ref_leader:
                return
            index, txlist = msg.payload
            landed[index] = txlist

        for rid in ctx.referee:
            ctx.nodes[rid].on("rc/final", on_final)
        for spec in ctx.committees:
            txlist = final.get(spec.index)
            if txlist is None:
                continue
            leader = ctx.nodes[spec.leader]
            payload = (spec.index, txlist)
            size = max(1, len(txlist)) * TX_WIRE_BYTES
            leader.multicast(ctx.referee, "rc/final", payload, size=size)
        ctx.net.run()

        pack = self._build_block(ctx, landed)
        if pack.block is not None:
            ref_node = ctx.nodes[ref_leader]
            self._chunked_multicast(
                ref_node,
                (nid for nid in ctx.nodes if nid != ref_leader),
                "rc/block",
                ctx.round_number,
                total_bytes=max(1, pack.packed) * TX_WIRE_BYTES,
            )
            ctx.net.run()
        return pack

    # -- report decoration ---------------------------------------------------
    def _decorate_report(self, report: SimRoundReport, ctx, phase_reports) -> None:
        timings = report.phase_sim_times
        report.intra_accepted = sum(
            len(txs) for txs in phase_reports[PHASE_CONSENSUS].values()
        )
        report.inter_voted = self._routed
        report.inter_accepted = sum(
            sum(1 for t in txs if t.cross_shard)
            for txs in phase_reports[PHASE_ROUTING].values()
        )
        report.intra_elapsed = timings.get(PHASE_CONSENSUS, 0.0)
        report.inter_elapsed = timings.get(PHASE_ROUTING, 0.0)
        report.blockgen_elapsed = timings.get(PHASE_BLOCK, 0.0)
        report.blockgen_subblocks = len(phase_reports[self.pack_phase].per_committee)
