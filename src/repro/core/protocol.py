"""The CycLedger protocol orchestrator.

Drives full rounds over one long-lived network simulator shared across
rounds (rewound in place each round, with the elapsed span folded into the
continuous ``global_now`` clock), with persistent chain, UTXO state,
reputation, rewards, mempool, and workload across rounds.  Phase order per
§III-E:

    committee configuration → semi-commitment exchange → intra-committee
    consensus → inter-committee consensus → reputation updating →
    referee/leader/partial-set selection → block generation & propagation

The configuration + semi-commitment prefix of round r+1 depends only on
round r's selection outcome, never on its block — the data-flow fact behind
the paper's pipelining claim.  The phases below carry those dependency
annotations, and the :class:`~repro.core.pipeline.OverlapScheduler`
(``ProtocolParams.overlap="semicommit"``) uses them to report the
overlapped end-to-end timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.backend import CommitteeSimBackend, SimRoundReport
from repro.core.blockgen import BlockReport, run_block_generation
from repro.core.committee import ConfigReport, run_committee_configuration
from repro.core.inter import InterReport, run_inter_consensus
from repro.core.intra import IntraReport, run_intra_consensus
from repro.core.pipeline import Phase, PhasePipeline
from repro.core.reputation import ReputationReport, run_reputation_updating
from repro.core.selection import SelectionReport, run_selection
from repro.core.semicommit import SemiCommitReport, run_semi_commitment_exchange
from repro.core.sortition import assign_partial_sets
from repro.core.structures import RoundContext
from repro.crypto.hashing import H


#: Canonical phase names (§III-E order).  They match the phase labels the
#: executors set on the metrics collector, so pipeline timings and message
#: census rows line up.
PHASE_CONFIG = "config"
PHASE_SEMICOMMIT = "semicommit"
PHASE_INTRA = "intra"
PHASE_INTER = "inter"
PHASE_REPUTATION = "reputation"
PHASE_SELECTION = "selection"
PHASE_BLOCK = "block"


def _run_block_phase(ctx) -> BlockReport:
    """Block generation needs the selection phase's outcome; under the
    pipeline it reads it from the shared context instead of a positional
    argument."""
    return run_block_generation(ctx, ctx.phase_reports[PHASE_SELECTION])


@dataclass(kw_only=True)
class RoundReport(SimRoundReport):
    """The flat round report plus everything the seven phases produced."""

    config: ConfigReport
    semicommit: SemiCommitReport
    intra: IntraReport
    inter: InterReport
    reputation: ReputationReport
    selection: SelectionReport
    blockgen: BlockReport


class CycLedger(CommitteeSimBackend):
    """A running CycLedger deployment.

    >>> ledger = CycLedger(ProtocolParams(n=64, m=4, lam=3, referee_size=8))
    >>> reports = ledger.run(rounds=3)
    >>> len(ledger.chain)
    3
    """

    #: registry name in :mod:`repro.backends` (the first LedgerBackend)
    backend_name = "cycledger"
    pack_phase = PHASE_BLOCK

    def build_pipeline(self) -> PhasePipeline:
        """The paper's seven-phase round.

        The cross-round ``needs_prev`` annotations encode §III-E's data
        flow: committee configuration of round r+1 reads only round r's
        selection outcome (roles and beacon randomness), while
        intra-committee consensus must wait for round r's block (committees
        validate against the post-block UTXO view).  Under
        ``overlap=semicommit`` the scheduler therefore runs the config +
        semi-commit prefix of r+1 concurrently (in sim time) with the
        block-generation suffix of r.
        """
        return PhasePipeline(
            (
                Phase(
                    PHASE_CONFIG,
                    run_committee_configuration,
                    needs_prev=(PHASE_SELECTION,),
                ),
                Phase(PHASE_SEMICOMMIT, run_semi_commitment_exchange),
                Phase(
                    PHASE_INTRA,
                    run_intra_consensus,
                    needs=(PHASE_SEMICOMMIT,),
                    needs_prev=(PHASE_BLOCK,),
                ),
                Phase(PHASE_INTER, run_inter_consensus),
                Phase(PHASE_REPUTATION, run_reputation_updating),
                Phase(PHASE_SELECTION, run_selection),
                Phase(PHASE_BLOCK, _run_block_phase),
            )
        )

    # -- role staging ---------------------------------------------------------
    def _stage_genesis(self) -> None:
        """Round 1 key roles: uniform lotteries over all nodes (no
        reputation yet), then partial sets from whoever is left."""
        params = self.params
        self.randomness = H("GENESIS_RANDOMNESS", params.seed)
        self._stage_roles(1)
        taken = {*self._next_referee, *self._next_leaders}
        pool = [node.pk for node in self.nodes.values() if node.pk not in taken]
        self._next_partials = assign_partial_sets(
            pool, 1, self.randomness, params.m, params.lam
        )

    def _stage_next_round(self, phase_reports: dict[str, Any]) -> None:
        """Next round's roles and randomness are the selection phase's
        outcome.  Expelled leaders already had the cube-root punishment
        applied by the recovery module; nothing further here (§VII-B)."""
        selection: SelectionReport = phase_reports[PHASE_SELECTION]
        self._next_referee = selection.next_referee
        self._next_leaders = selection.next_leaders
        self._next_partials = selection.next_partials
        self.randomness = selection.randomness

    # -- reporting ------------------------------------------------------------
    def _new_report(
        self, phase_reports: dict[str, Any], **headline: Any
    ) -> RoundReport:
        return RoundReport(
            config=phase_reports[PHASE_CONFIG],
            semicommit=phase_reports[PHASE_SEMICOMMIT],
            intra=phase_reports[PHASE_INTRA],
            inter=phase_reports[PHASE_INTER],
            reputation=phase_reports[PHASE_REPUTATION],
            selection=phase_reports[PHASE_SELECTION],
            blockgen=phase_reports[PHASE_BLOCK],
            **headline,
        )

    def _decorate_report(
        self, report: RoundReport, ctx: RoundContext, phase_reports: dict[str, Any]
    ) -> None:
        intra, inter, blockgen = report.intra, report.inter, report.blockgen
        report.intra_accepted = sum(
            len(txs) for txs in intra.accepted_by_cr.values()
        )
        report.inter_accepted = sum(len(txs) for txs in inter.accepted.values())
        report.inter_voted = sum(len(r.txs) for r in inter.send_rounds.values())
        report.prefilter_savings = inter.prefilter_savings
        report.blockgen_subblocks = blockgen.parallel_subblocks
        report.blockgen_width = blockgen.parallel_width
