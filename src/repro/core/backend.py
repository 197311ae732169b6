"""The executable-backend contract and the one round driver.

Every executable protocol — CycLedger and the simplified rival backends —
satisfies the same :class:`LedgerBackend` contract: construct from
``(ProtocolParams, AdversaryConfig, capacity_fn, scenario)``, expose
``run_round() -> report`` / ``run(rounds)``, and surface the accessors the
experiment engine's :func:`repro.exp.results.collect_result` distils
(``nodes``, ``adversary``, ``reputation``, ``rewards``, ``chain``,
``metrics``, ``total_packed``).  Round reports follow a *flat* attribute
contract (see :class:`SimRoundReport`); CycLedger's richer
:class:`~repro.core.protocol.RoundReport` is that report plus its seven
per-phase reports, so the serialization layer never dispatches on the
backend type.

:class:`CommitteeSimBackend` is the single round driver all of them
subclass: spawned RNG sub-streams, :class:`~repro.core.node.CycNode`
population, the long-lived :class:`~repro.net.simulator.Network`,
sortition-driven committee assignment, workload generation/reconciliation,
chain maintenance, and the :class:`~repro.core.pipeline.PhasePipeline`
round loop — so scenarios inject faults into every backend through the
same pre/post phase hooks and the per-backend code is only the consensus
semantics that actually differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.config import ProtocolParams
from repro.core.node import CycNode
from repro.core.pipeline import OverlapScheduler, PhasePipeline
from repro.core.reporting import emit_round_report, rss_kb
from repro.core.reputation import ReputationStore
from repro.core.sortition import REFEREE_ROLE, crypto_sort, rank_select
from repro.core.structures import CommitteeSpec, RoundContext
from repro.crypto.hashing import H
from repro.crypto.pki import PKI
from repro.ledger.chain import Block, Chain
from repro.ledger.state import ShardState, apply_block
from repro.ledger.workload import TxMempool, WorkloadGenerator
from repro.metrics.counters import MetricsCollector
from repro.net.simulator import Network
from repro.net.topology import Channels, build_cycledger_topology
from repro.nodes.adversary import AdversaryConfig, AdversaryController

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.scenario import Scenario


@runtime_checkable
class LedgerBackend(Protocol):
    """What the experiment engine requires of an executable protocol.

    The attributes mirror what :func:`repro.exp.results.collect_result`
    reads; ``run_round`` must return an object satisfying the flat
    round-report contract of :class:`SimRoundReport`.  The methods are
    stated as typed members, like the data attributes.
    """

    params: ProtocolParams
    nodes: dict[int, CycNode]
    adversary: AdversaryController
    reputation: dict[str, float]
    rewards: dict[str, float]
    chain: Chain
    metrics: MetricsCollector
    mempool: TxMempool
    overlap_scheduler: OverlapScheduler

    #: execute one protocol round and return its round report
    run_round: Callable[[], Any]
    #: execute ``rounds`` consecutive rounds; returns their reports
    run: Callable[[int], list[Any]]
    #: transactions packed into the chain across all rounds so far
    total_packed: Callable[[], int]


@dataclass
class SimRoundReport:
    """Backend-neutral round report: the flat attribute contract.

    :func:`repro.exp.results.round_row` reads exactly these attributes, so
    every backend's reports serialize identically.  The driver fills the
    headline numbers; each backend's ``_decorate_report`` fills the detail
    counters from its own phase reports (fields a simplified protocol lacks
    stay at their zero defaults — e.g. ``recoveries`` is always 0 for
    protocols without leader re-selection, which is precisely the Table I
    contrast).
    """

    round_number: int
    block: Block | None
    submitted: int = 0
    packed: int = 0
    cross_packed: int = 0
    recoveries: int = 0
    messages: int = 0
    bytes_sent: int = 0
    sim_time: float = 0.0
    reliable_channels: int = 0
    dropped: int = 0  # messages the fabric dropped (partitions, filters)
    # Sim-time span of each pipeline phase and completion times of leader
    # re-selections — both on the simulated clock, so reports stay
    # deterministic per seed.
    phase_sim_times: dict[str, float] = field(default_factory=dict)
    recovery_times: tuple[float, ...] = ()
    intra_accepted: int = 0
    inter_accepted: int = 0
    inter_voted: int = 0
    prefilter_savings: int = 0
    intra_elapsed: float = 0.0
    inter_elapsed: float = 0.0
    blockgen_elapsed: float = 0.0
    blockgen_subblocks: int = 0
    blockgen_width: int = 0
    # Continuous-timeline window of this round under the active overlap
    # mode (timeline_end - timeline_start == sim_time when overlap=none),
    # plus the persistent-mempool queue health at settlement.
    timeline_start: float = 0.0
    timeline_end: float = 0.0
    queue_depth: int = 0
    tx_evicted: int = 0
    tx_age_mean: float = 0.0
    tx_age_max: float = 0.0
    # Epoch-scale observability (ISSUE 10): process RSS sampled at report
    # time (0 unless ProtocolParams.sample_rss — RSS is host-dependent and
    # must not leak into byte-compared artifacts), and this report's 1-based
    # sequence number in the run's emission stream (identical with or
    # without a report sink attached).
    rss_peak_kb: int = 0
    reports_streamed: int = 0


@dataclass
class PackReport:
    """What a rival backend's packing phase produced (the driver reads
    ``block`` and ``packed`` off whatever report :attr:`pack_phase` names)."""

    block: Block | None
    packed: int
    #: committee index -> transactions that made it into the block
    per_committee: dict[int, int] = field(default_factory=dict)


class CommitteeSimBackend:
    """The round driver every executable backend subclasses.

    Subclasses define ``backend_name``, build their phase pipeline in
    :meth:`build_pipeline` (the phase named by :attr:`pack_phase` must
    store a report with ``block`` and ``packed``), and may override
    :meth:`_decorate_report` to fill protocol-specific headline counters.
    The role-staging hooks (:meth:`_stage_genesis`,
    :meth:`_stage_next_round`) default to uniform hash lotteries with no
    partial sets — what the rivals use; CycLedger overrides them with its
    reputation-weighted selection outcome.

    The scenario driver relies on what this class declares:
    ``_next_leaders``/``_node_id`` for leader-crash and policy targeting,
    ``adversary`` for ramps, forced-offline windows and corruption re-aiming,
    and a round context carrying ``net``/``committees``/``referee`` for
    partition resolution.
    """

    backend_name = "abstract"
    #: name of the pipeline phase whose report carries the round's block
    pack_phase = "block"

    def __init__(
        self,
        params: ProtocolParams,
        adversary: AdversaryConfig | None = None,
        capacity_fn: Callable[[int, np.random.Generator], int] | None = None,
        scenario: "Scenario | None" = None,
        pipeline: PhasePipeline | None = None,
    ) -> None:
        self.params = params
        # One root seed fans out into independent, order-insensitive
        # sub-streams: protocol-phase draws, the workload generator, the
        # adversary's corruption lottery, network jitter and scenario event
        # draws each own a spawned child.  Identical seeds therefore give
        # identical round reports even when one component changes how many
        # draws it makes — and because every backend builds through this one
        # constructor, backend arms of one sweep point share
        # workload/adversary/jitter streams (the seed-pairing contract) by
        # construction.  SeedSequence children depend only on
        # their spawn index, so growing the fan-out leaves every earlier
        # stream byte-identical.
        proto_ss, workload_ss, adversary_ss, net_ss, scenario_ss = (
            np.random.SeedSequence(params.seed).spawn(5)
        )
        self.rng = np.random.default_rng(proto_ss)
        self.net_rng = np.random.default_rng(net_ss)
        self.pki = PKI()
        self.metrics = MetricsCollector()  # cumulative across rounds
        self.nodes: dict[int, CycNode] = {}
        for node_id in range(params.n):
            capacity = (
                capacity_fn(node_id, self.rng) if capacity_fn is not None else 10_000
            )
            self.nodes[node_id] = CycNode(
                node_id,
                self.pki.generate((self.backend_name, params.seed, node_id)),
                capacity=capacity,
            )
        # pk -> node id, built once: _node_id is called inside per-round
        # role-assignment loops, where a linear scan over all nodes is O(n²).
        self._pk_to_id = {node.pk: node.node_id for node in self.nodes.values()}
        self.adversary = AdversaryController(
            adversary if adversary is not None else AdversaryConfig(),
            list(self.nodes),
            np.random.default_rng(adversary_ss),
        )
        self.workload = WorkloadGenerator(
            m=params.m,
            users_per_shard=params.users_per_shard,
            rng=np.random.default_rng(workload_ss),
            spent_retention=params.spent_retention,
        )
        # The transaction queue between the generator and the round loop:
        # a fixed batch a round with nothing carried over (legacy), or
        # poisson arrivals that survive unpacked rounds and age on the
        # continuous clock.
        self.mempool = TxMempool(
            self.workload,
            process=params.arrival_process,
            rate=params.arrival_rate,
            capacity=params.mempool_capacity,
            max_age_rounds=params.mempool_max_age,
            batch=2 * params.m * params.tx_per_committee,
        )
        # The network fabric is built once and rewound per round (reset)
        # instead of reallocated.
        # Envelope pooling is safe here: every handler on the orchestrated
        # path retains message *payloads* only, never the envelope itself.
        self.net = Network(params.net, self.net_rng, pool_envelopes=True)
        for node in self.nodes.values():
            self.net.add_node(node)
        self.global_utxos = self.workload.genesis_utxos()
        self.shard_states = [ShardState(k, params.m) for k in range(params.m)]
        apply_block(self.shard_states, [self.workload.genesis_tx])
        self.chain = Chain(retention=params.chain_retention)
        self.reputation = ReputationStore(node.pk for node in self.nodes.values())
        self.rewards: dict[str, float] = {}
        self.round_number = 1
        # Streaming report path (repro.core.reporting.emit_round_report): an
        # optional per-report sink, an optional bound on the in-memory reports
        # list (None = legacy unbounded), and the emission counter.
        self.report_sink: Callable[[SimRoundReport], None] | None = None
        self.report_retention: int | None = None
        self.reports_streamed = 0
        self.reports: list[SimRoundReport] = []
        self._stage_genesis()

        if pipeline is not None:
            # Scenario hooks fire on *every* ledger that runs the pipeline,
            # so a pipeline may never be shared between a scenario-bearing
            # ledger and any other — in either construction order.
            if pipeline.scenario_driver is not None:
                raise ValueError(
                    "pipeline is already bound to a scenario-bearing "
                    "ledger; build a fresh pipeline per ledger"
                )
            if scenario is not None and pipeline.owner is not None:
                raise ValueError(
                    "pipeline is already in use by another ledger; a "
                    "scenario needs a dedicated pipeline"
                )
        self.pipeline = pipeline if pipeline is not None else self.build_pipeline()
        if self.pipeline.owner is None:
            self.pipeline.owner = self
        # Every backend owns an overlap scheduler: it composes the measured
        # per-round phase spans into the continuous end-to-end timeline.  In
        # "semicommit" mode phases annotated with needs_prev (only CycLedger's
        # config/semicommit prefix carries such annotations) start before the
        # previous round finishes; pipelines without annotations serialize
        # regardless of mode.
        self.overlap_scheduler = OverlapScheduler(params.overlap)
        self.scenario = scenario
        self.scenario_driver = None
        if scenario is not None:
            # Local import: repro.scenarios builds on the pipeline and net
            # layers and must stay importable without the orchestrators.
            from repro.scenarios.scenario import ScenarioDriver

            self.scenario_driver = ScenarioDriver(
                scenario, np.random.default_rng(scenario_ss)
            )
            self.scenario_driver.install(self)

    # -- subclass hooks ------------------------------------------------------
    def build_pipeline(self) -> PhasePipeline:
        """Construct this protocol's phase pipeline (subclass hook); the
        phase named by :attr:`pack_phase` must store a report exposing the
        round's ``block`` and ``packed`` count."""
        raise NotImplementedError

    def _stage_genesis(self) -> None:
        """Set the genesis randomness and stage round 1's key roles."""
        self.randomness = H("GENESIS_RANDOMNESS", self.backend_name, self.params.seed)
        self._stage_roles(1)

    def _stage_next_round(self, phase_reports: dict[str, Any]) -> None:
        """Stage the round after the one that just ran (called before
        ``round_number`` advances): hash-chained randomness and fresh role
        lotteries."""
        self.randomness = H(
            self.backend_name, "NEXT_RANDOMNESS", self.round_number, self.randomness
        )
        self._stage_roles(self.round_number + 1)

    def _new_report(
        self, phase_reports: dict[str, Any], **headline: Any
    ) -> SimRoundReport:
        """The round's report object, built from the driver's headline
        numbers (subclass hook: a report type that also carries the
        per-phase reports)."""
        return SimRoundReport(**headline)

    def _decorate_report(
        self,
        report: SimRoundReport,
        ctx: RoundContext,
        phase_reports: dict[str, Any],
    ) -> None:
        """Fill backend-specific headline counters (default: leave zeros)."""

    # -- helpers -------------------------------------------------------------
    def _node_id(self, pk: str) -> int:
        return self._pk_to_id[pk]

    def _stage_roles(self, round_number: int) -> None:
        """Draw ``round_number``'s referee and leaders from the current
        randomness by uniform hash lottery, with no partial sets (round 1
        has no reputation yet, and rivals never have any, so the paper's
        reputation-weighted leader rule degenerates to the hash rank)."""
        all_pks = [node.pk for node in self.nodes.values()]
        self._next_referee = rank_select(
            all_pks,
            round_number,
            self.randomness,
            REFEREE_ROLE,
            self.params.referee_size,
        )
        referee_set = set(self._next_referee)
        rest = [pk for pk in all_pks if pk not in referee_set]
        self._next_leaders = rank_select(
            rest, round_number, self.randomness, "LEADER", self.params.m
        )
        self._next_partials: list[list[str]] = [[] for _ in range(self.params.m)]

    # -- round assembly ------------------------------------------------------
    def _assign_round(self) -> tuple[list[CommitteeSpec], list[int], Channels]:
        """Committee configuration inputs: who plays which role this round
        (staged referee, leaders and partial sets, plus common members
        placed by Algorithm 1's VRF bucketing)."""
        params = self.params
        referee_ids = [self._node_id(pk) for pk in self._next_referee]
        leader_ids = [self._node_id(pk) for pk in self._next_leaders]
        partial_ids = [
            [self._node_id(pk) for pk in pks] for pks in self._next_partials
        ]
        key_and_referee = set(referee_ids) | set(leader_ids)
        for pks in partial_ids:
            key_and_referee |= set(pks)

        for node in self.nodes.values():
            node.reset_round_state()
            node.online = not self.adversary.is_offline(node.node_id)

        # Common members find their committee via Algorithm 1.
        committee_commons: list[list[int]] = [[] for _ in range(params.m)]
        for node in self.nodes.values():
            if node.node_id in key_and_referee:
                continue
            ticket = crypto_sort(
                node.keypair, self.round_number, self.randomness, params.m
            )
            node.ticket = ticket
            committee_commons[ticket.committee_id].append(node.node_id)

        committees: list[CommitteeSpec] = []
        for k in range(params.m):
            members = [leader_ids[k], *partial_ids[k], *committee_commons[k]]
            spec = CommitteeSpec(
                index=k,
                leader=leader_ids[k],
                partial=tuple(partial_ids[k]),
                members=members,
            )
            committees.append(spec)
            leader_node = self.nodes[leader_ids[k]]
            leader_node.is_leader = True
            leader_node.behavior = self.adversary.leader_behavior(leader_ids[k])
            for pid in partial_ids[k]:
                partial_node = self.nodes[pid]
                partial_node.is_partial = True
                partial_node.behavior = self.adversary.voter_behavior(pid)
            for mid in members:
                node = self.nodes[mid]
                node.committee_id = k
                node.shard_state = self.shard_states[k]
                if not node.is_leader and not node.is_partial:
                    node.behavior = self.adversary.voter_behavior(mid)
        for rid in referee_ids:
            node = self.nodes[rid]
            node.is_referee = True
            node.behavior = self.adversary.voter_behavior(rid)

        # A fresh ``Channels`` every round: no installed topology is ever
        # mutated in place, so the fabric's channel rows cannot go stale.
        channels = build_cycledger_topology(
            [(spec.members, spec.key_members) for spec in committees],
            referee_ids,
        )
        return committees, referee_ids, channels

    # -- the main loop -------------------------------------------------------
    def run_round(self) -> SimRoundReport:
        """Execute one round: assign roles, admit workload, drive the
        phase pipeline, settle the mempool, and stage the next round."""
        params = self.params
        self.pipeline.begin_round(self)
        committees, referee_ids, channels = self._assign_round()
        round_metrics = MetricsCollector()
        for node in self.nodes.values():
            round_metrics.set_role(node.node_id, node.role)
        for cls, count in channels.counts.items():
            round_metrics.record_channels(cls, count)
        net = self.net
        net.reset(metrics=round_metrics)
        net.set_channel_classifier(channels.classify)

        arrivals = self.mempool.admit(
            self.round_number,
            net.global_now,
            cross_shard_ratio=params.cross_shard_ratio,
            invalid_ratio=params.invalid_ratio,
        )
        mempools = self.mempool.offered()

        ctx = RoundContext(
            params=params,
            pki=self.pki,
            net=net,
            metrics=round_metrics,
            rng=self.rng,
            round_number=self.round_number,
            randomness=self.randomness,
            nodes=self.nodes,
            committees=committees,
            referee=referee_ids,
            reputation=self.reputation,
            mempools=mempools,
            shard_states=self.shard_states,
            chain=self.chain,
            global_utxos=self.global_utxos,
            rewards=self.rewards,
        )

        phase_reports = self.pipeline.execute(ctx)
        pack = phase_reports[self.pack_phase]
        packed_ids = (
            {tx.txid for tx in pack.block.transactions} if pack.block else set()
        )
        queue_stats = self.mempool.settle(
            packed_ids, self.round_number, net.global_now
        )
        window = self.overlap_scheduler.observe_round(
            self.round_number,
            tuple(self.pipeline),
            self.pipeline.last_timings,
            net.now,
        )

        cross_ids = {
            t.tx.txid for pool in mempools for t in pool if t.cross_shard
        }
        report = self._new_report(
            phase_reports,
            round_number=self.round_number,
            block=pack.block,
            submitted=arrivals,
            packed=pack.packed,
            cross_packed=len(packed_ids & cross_ids),
            recoveries=len(ctx.recoveries),
            messages=round_metrics.total_messages(),
            bytes_sent=round_metrics.total_bytes(),
            sim_time=net.now,
            reliable_channels=channels.total_reliable(),
            dropped=net.dropped_messages,
            phase_sim_times=dict(self.pipeline.last_timings),
            recovery_times=tuple(e.sim_time for e in ctx.recoveries),
            timeline_start=window.start,
            timeline_end=window.end,
            queue_depth=queue_stats.depth,
            tx_evicted=queue_stats.evicted,
            tx_age_mean=queue_stats.age_mean,
            tx_age_max=queue_stats.age_max,
            rss_peak_kb=rss_kb() if params.sample_rss else 0,
        )
        self._decorate_report(report, ctx, phase_reports)
        self.metrics.merge(round_metrics)
        emit_round_report(self, report)

        self._stage_next_round(phase_reports)
        self.round_number += 1
        self.adversary.advance_round()
        self.pipeline.end_round(self, report)
        return report

    def run(self, rounds: int) -> list[SimRoundReport]:
        """Run ``rounds`` consecutive rounds; returns their reports."""
        return [self.run_round() for _ in range(rounds)]

    # -- convenience accessors ----------------------------------------------
    def total_packed(self) -> int:
        """Transactions packed into the chain across all rounds so far."""
        return self.chain.total_transactions()

    def reputation_by_behavior(self) -> dict[str, list[float]]:
        """Reputation values grouped by node behaviour name (flat zeros for
        the rival backends — they ship without incentives)."""
        grouped: dict[str, list[float]] = {}
        for node in self.nodes.values():
            grouped.setdefault(node.behavior.name, []).append(
                self.reputation.get(node.pk, 0.0)
            )
        return grouped
