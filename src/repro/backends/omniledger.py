"""Executable OmniLedger-style backend [Kokoris-Kogias et al., S&P'18].

The simplified executable sibling of the analytic
:class:`~repro.baselines.omniledger.OmniLedgerModel`: sortition-drawn
per-shard committees, ByzCoin-style intra-shard consensus (accept needs
more than 2/3 Yes votes, matching the shard BFT bound), and client-driven
Atomix cross-shard commit — a lock / proof-of-acceptance / unlock round
trip between the input and output shard leaders, driven by the
never-absent client the paper's §II-A critique centres on.  The staged
``referee`` group plays OmniLedger's epoch-randomness (RandHound) role:
it beacons the next epoch seed to shard leaders but takes no part in
transaction consensus, and there is no global packing committee — each
shard's final list becomes a sub-block and the backend concatenates them
into the round's canonical block.

A cross-shard transaction commits only when all three Atomix legs are
actually delivered and both leaders are honest and online; a faulty
coordinating leader or a partition stalls it, with no recovery — the
Table I dishonest-leader column, produced by mechanics.  See
``docs/backends.md`` for fidelity caveats.
"""

from __future__ import annotations

from repro.backends.base import CONTROL_WIRE_BYTES, TX_WIRE_BYTES, RivalBackend
from repro.core.backend import PackReport, SimRoundReport
from repro.core.pipeline import Phase, PhasePipeline
from repro.core.structures import RoundContext
from repro.ledger.workload import TaggedTx

PHASE_SHARD = "shard"
PHASE_ATOMIX = "atomix"
PHASE_BLOCK = "block"


class OmniLedgerBackend(RivalBackend):
    """Simplified executable OmniLedger (backend name ``omniledger_sim``)."""

    backend_name = "omniledger_sim"
    pack_phase = PHASE_BLOCK
    dissemination_chunks = 2

    def build_pipeline(self) -> PhasePipeline:
        """The three OmniLedger phases: shard BFT, Atomix, packing."""
        return PhasePipeline(
            (
                Phase(PHASE_SHARD, self._phase_shard),
                Phase(PHASE_ATOMIX, self._phase_atomix),
                Phase(PHASE_BLOCK, self._phase_block),
            )
        )

    # -- phases --------------------------------------------------------------
    def _phase_shard(self, ctx: RoundContext) -> dict[int, list[TaggedTx]]:
        """Intra-shard ByzCoin consensus: leaders disseminate validated
        TXLists; acceptance needs a greater-than-2/3 supermajority."""
        ctx.metrics.set_phase(PHASE_SHARD)
        proposals = self._disseminate_proposals(ctx, "ol/propose")
        yes = self._collect_committee_votes(ctx, proposals, "ol/vote")
        accepted: dict[int, list[TaggedTx]] = {}
        for spec in ctx.committees:
            txlist = proposals.get(spec.index)
            if txlist is None:
                continue
            if 3 * yes.get(spec.index, 0) > 2 * spec.size:
                accepted[spec.index] = txlist
        ctx.intra_results = accepted
        return accepted

    def _phase_atomix(self, ctx: RoundContext) -> dict[int, list[TaggedTx]]:
        """Atomix: for each accepted cross-shard transaction the client
        drives lock -> proof-of-acceptance -> unlock between the input and
        output shard leaders.  Commit requires the full round trip per
        output shard; any undelivered leg or misbehaving leader leaves the
        transaction locked forever (no recovery)."""
        ctx.metrics.set_phase(PHASE_ATOMIX)
        accepted = ctx.phase_reports[PHASE_SHARD]
        unlocked: dict[tuple[int, bytes], int] = {}

        def on_lock(msg) -> None:
            """The output-shard leader answers lock with proof: honest
            online leaders return a proof-of-acceptance."""
            node = ctx.nodes[msg.recipient]
            if node.online and not node.behavior.is_malicious:
                node.send(
                    msg.sender, "ol/proof", msg.payload,
                    size=CONTROL_WIRE_BYTES,
                )

        def on_proof(msg) -> None:
            """The client, holding the proof-of-acceptance, submits the
            unlock-to-commit to the output shard's leader."""
            ctx.nodes[msg.recipient].send(
                msg.sender, "ol/unlock", msg.payload, size=TX_WIRE_BYTES
            )

        def on_unlock(msg) -> None:
            """Count one unlock-to-commit for a cross-shard transaction."""
            unlocked[msg.payload] = unlocked.get(msg.payload, 0) + 1

        for spec in ctx.committees:
            node = ctx.nodes[spec.leader]
            node.on("ol/lock", on_lock)
            node.on("ol/proof", on_proof)
            node.on("ol/unlock", on_unlock)

        final, self._atomix_started = self._route_cross_shard(
            ctx, accepted, "ol/lock", unlocked
        )
        ctx.inter_results = final
        return final

    def _phase_block(self, ctx: RoundContext) -> PackReport:
        """Sub-block assembly plus the RandHound beacon: each shard's final
        list becomes a sub-block gossiped to its members; the epoch group
        (staged referee set) beacons next-round randomness to every shard
        leader."""
        ctx.metrics.set_phase(PHASE_BLOCK)
        final = ctx.phase_reports[PHASE_ATOMIX]
        for spec in ctx.committees:
            txlist = final.get(spec.index)
            if not txlist:
                continue
            leader = ctx.nodes[spec.leader]
            self._chunked_multicast(
                leader,
                spec.members,
                "ol/subblock",
                spec.index,
                total_bytes=len(txlist) * TX_WIRE_BYTES,
            )
        # RandHound's output reaches each shard leader from the epoch group
        # leader (best-effort channel; the seed itself stays deterministic).
        beacon = ctx.nodes[ctx.referee[0]]
        beacon.multicast(
            [spec.leader for spec in ctx.committees],
            "ol/rand",
            ctx.round_number,
            size=CONTROL_WIRE_BYTES,
        )
        ctx.net.run()
        return self._build_block(ctx, final)

    # -- report decoration ---------------------------------------------------
    def _decorate_report(self, report: SimRoundReport, ctx, phase_reports) -> None:
        timings = report.phase_sim_times
        report.intra_accepted = sum(
            len(txs) for txs in phase_reports[PHASE_SHARD].values()
        )
        report.inter_voted = self._atomix_started
        report.inter_accepted = sum(
            sum(1 for t in txs if t.cross_shard)
            for txs in phase_reports[PHASE_ATOMIX].values()
        )
        report.intra_elapsed = timings.get(PHASE_SHARD, 0.0)
        report.inter_elapsed = timings.get(PHASE_ATOMIX, 0.0)
        report.blockgen_elapsed = timings.get(PHASE_BLOCK, 0.0)
        report.blockgen_subblocks = len(
            [txs for txs in phase_reports[PHASE_ATOMIX].values() if txs]
        )
