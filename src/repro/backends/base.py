"""The executable-backend contract and shared committee-sim scaffolding.

Every executable protocol — CycLedger and the simplified rival backends —
satisfies the same :class:`LedgerBackend` contract: construct from
``(ProtocolParams, AdversaryConfig, capacity_fn, scenario)``, expose
``run_round() -> report`` / ``run(rounds)``, and surface the accessors the
experiment engine's :func:`repro.exp.results.collect_result` distils
(``nodes``, ``adversary``, ``reputation``, ``rewards``, ``chain``,
``metrics``, ``total_packed``).  Round reports follow a *flat* attribute
contract (see :class:`SimRoundReport`); CycLedger's richer
:class:`~repro.core.protocol.RoundReport` exposes the same attributes as
derived properties, so the serialization layer never dispatches on the
backend type.

:class:`CommitteeSimBackend` factors the machinery the rival backends share
with CycLedger — spawned RNG sub-streams, :class:`~repro.core.node.CycNode`
population, the long-lived :class:`~repro.net.simulator.Network`,
sortition-driven committee assignment, workload generation/reconciliation,
chain maintenance, and the :class:`~repro.core.pipeline.PhasePipeline`
round loop — so scenarios inject faults into every backend through the
same pre/post phase hooks and the per-backend code is only the consensus
semantics that actually differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, runtime_checkable

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
from repro.ledger.chain import GENESIS_PREV_HASH, Block, Chain
from repro.ledger.state import ShardState
from repro.ledger.transaction import shard_of_address
from repro.ledger.utxo import ValidationResult, validate_batch, validate_transaction
from repro.ledger.workload import MempoolStats, TaggedTx, TxMempool, WorkloadGenerator
from repro.metrics.counters import MetricsCollector
from repro.net.simulator import Network
from repro.net.topology import Channels, build_cycledger_topology
from repro.nodes.adversary import AdversaryConfig, AdversaryController

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.policies import AdversaryPolicy
    from repro.scenarios.scenario import Scenario

#: Wire size charged per transaction in a list payload (bytes).
TX_WIRE_BYTES = 96
#: Wire size of a vote / ack / beacon control message (bytes).
CONTROL_WIRE_BYTES = 40


@runtime_checkable
class LedgerBackend(Protocol):
    """What the experiment engine requires of an executable protocol.

    The attributes mirror what :func:`repro.exp.results.collect_result`
    reads; ``run_round`` must return an object satisfying the flat
    round-report contract of :class:`SimRoundReport`.
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

    def run_round(self) -> Any:
        """Execute one protocol round and return its round report."""
        ...

    def run(self, rounds: int) -> list[Any]:
        """Execute ``rounds`` consecutive rounds; returns their reports."""
        ...

    def total_packed(self) -> int:
        """Transactions packed into the chain across all rounds so far."""
        ...


@dataclass
class SimRoundReport:
    """Backend-neutral round report: the flat attribute contract.

    :func:`repro.exp.results.round_row` reads exactly these attributes, so
    any backend whose reports provide them serializes identically.
    CycLedger's :class:`~repro.core.protocol.RoundReport` derives them from
    its per-phase reports; the rival backends fill them directly (fields
    their simplified protocols lack stay at their zero defaults — e.g.
    ``recoveries`` is always 0 for protocols without leader re-selection,
    which is precisely the Table I contrast).
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
    dropped: int = 0
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
    """What a backend's packing phase produced (the last pipeline phase)."""

    block: Block | None
    packed: int
    cross_packed: int
    #: committee index -> transactions that made it into the block
    per_committee: dict[int, int] = field(default_factory=dict)


def init_shared_state(
    ledger: Any,
    params: ProtocolParams,
    adversary: AdversaryConfig | None,
    capacity_fn: Callable[[int, np.random.Generator], int] | None,
) -> np.random.SeedSequence:
    """Construct the state every executable backend shares, in one place.

    One root seed fans out into independent, order-insensitive sub-streams:
    protocol-phase draws, the workload generator, the adversary's
    corruption lottery, network jitter, and scenario event draws each own a
    spawned child.  Identical seeds therefore give identical round reports
    even when one component changes how many draws it makes — and because
    CycLedger and every :class:`CommitteeSimBackend` build through this
    single function, backend arms of one sweep point are guaranteed to
    share workload/adversary/jitter streams (the seed-pairing contract) by
    construction, not by keeping two constructors in sync.

    Returns the scenario and policy sub-streams for :func:`attach_pipeline`.
    SeedSequence children depend only on their spawn index, so growing the
    fan-out (the policy stream is child 5) leaves every earlier stream
    byte-identical.
    """
    root_ss = np.random.SeedSequence(params.seed)
    (
        proto_ss,
        workload_ss,
        adversary_ss,
        net_ss,
        scenario_ss,
        policy_ss,
    ) = root_ss.spawn(6)
    ledger.rng = np.random.default_rng(proto_ss)
    ledger.net_rng = np.random.default_rng(net_ss)
    ledger.pki = PKI()
    ledger.metrics = MetricsCollector()  # cumulative across rounds
    ledger.nodes = {}
    for node_id in range(params.n):
        capacity = (
            capacity_fn(node_id, ledger.rng) if capacity_fn is not None else 10_000
        )
        ledger.nodes[node_id] = CycNode(
            node_id,
            ledger.pki.generate((ledger.backend_name, params.seed, node_id)),
            capacity=capacity,
        )
    # pk -> node id, built once: _node_id is called inside per-round
    # role-assignment loops, where a linear scan over all nodes is O(n²).
    ledger._pk_to_id = {node.pk: node.node_id for node in ledger.nodes.values()}
    ledger.adversary = AdversaryController(
        adversary if adversary is not None else AdversaryConfig(),
        list(ledger.nodes),
        np.random.default_rng(adversary_ss),
    )
    ledger.workload = WorkloadGenerator(
        m=params.m,
        users_per_shard=params.users_per_shard,
        rng=np.random.default_rng(workload_ss),
        spent_retention=params.spent_retention,
    )
    # The persistent transaction queue between the generator and the round
    # loop.  In the default legacy mode it is a byte-exact pass-through of
    # the historical draw-a-batch-per-round model; with a poisson arrival
    # process transactions survive unpacked rounds and age on the
    # continuous clock.
    ledger.mempool = TxMempool(
        ledger.workload,
        process=params.arrival_process,
        rate=params.arrival_rate,
        capacity=params.mempool_capacity,
        max_age_rounds=params.mempool_max_age,
    )
    # The network fabric and channel maps are built once and rewound per
    # round (reset / in-place topology refill) instead of reallocated.
    # Envelope pooling is safe here: every handler on the orchestrated
    # path retains message *payloads* only, never the envelope itself.
    ledger.net = Network(params.net, ledger.net_rng, pool_envelopes=True)
    for node in ledger.nodes.values():
        ledger.net.add_node(node)
    ledger._channels = None
    ledger.global_utxos = ledger.workload.genesis_utxos()
    ledger.shard_states = [ShardState(k, params.m) for k in range(params.m)]
    for state in ledger.shard_states:
        state.add_genesis(ledger.workload.genesis_tx)
    ledger.chain = Chain(retention=params.chain_retention)
    ledger.reputation = ReputationStore(
        node.pk for node in ledger.nodes.values()
    )
    ledger.rewards = {}
    ledger.round_number = 1
    # Streaming report path (repro.core.reporting.emit_round_report): an
    # optional per-report sink, an optional bound on the in-memory reports
    # list (None = legacy unbounded), and the emission counter.
    ledger.report_sink = None
    ledger.report_retention = None
    ledger.reports_streamed = 0
    return scenario_ss, policy_ss


def attach_pipeline(
    ledger: Any,
    pipeline: PhasePipeline | None,
    scenario: "Scenario | None",
    scenario_ss: np.random.SeedSequence,
    default_factory: Callable[[], PhasePipeline],
    policy: "AdversaryPolicy | None" = None,
    policy_ss: np.random.SeedSequence | None = None,
) -> None:
    """Bind a pipeline (given or freshly built) plus optional scenario and
    adversary policy to a ledger, enforcing the sharing rules every backend
    must obey."""
    if pipeline is not None:
        # Scenario/policy hooks fire on *every* ledger that runs the
        # pipeline, so a pipeline may never be shared between a
        # scenario- or policy-bearing ledger and any other — in either
        # construction order.
        if pipeline.scenario_driver is not None:
            raise ValueError(
                "pipeline is already bound to a scenario-bearing "
                "ledger; build a fresh pipeline per ledger"
            )
        if pipeline.policy_driver is not None:
            raise ValueError(
                "pipeline is already bound to a policy-bearing "
                "ledger; build a fresh pipeline per ledger"
            )
        if scenario is not None and pipeline.owner is not None:
            raise ValueError(
                "pipeline is already in use by another ledger; a "
                "scenario needs a dedicated pipeline"
            )
        if policy is not None and pipeline.owner is not None:
            raise ValueError(
                "pipeline is already in use by another ledger; an "
                "adversary policy needs a dedicated pipeline"
            )
    ledger.pipeline = pipeline if pipeline is not None else default_factory()
    if ledger.pipeline.owner is None:
        ledger.pipeline.owner = ledger
    # Every backend owns an overlap scheduler: it composes the measured
    # per-round phase spans into the continuous end-to-end timeline.  In
    # "semicommit" mode phases annotated with needs_prev (only CycLedger's
    # config/semicommit prefix carries such annotations) start before the
    # previous round finishes; pipelines without annotations serialize
    # regardless of mode.
    ledger.overlap_scheduler = OverlapScheduler(ledger.params.overlap)
    ledger.scenario = scenario
    ledger.scenario_driver = None
    if scenario is not None:
        # Local import: repro.scenarios builds on the pipeline and net
        # layers and must stay importable without the orchestrators.
        from repro.scenarios.scenario import ScenarioDriver

        ledger.scenario_driver = ScenarioDriver(
            scenario, np.random.default_rng(scenario_ss)
        )
        ledger.scenario_driver.install(ledger)
    ledger.policy = policy
    ledger.policy_driver = None
    if policy is not None:
        # Local import, same layering rule as the scenario driver above.
        from repro.scenarios.policies import PolicyDriver

        ledger.policy_driver = PolicyDriver(
            policy, np.random.default_rng(policy_ss)
        )
        ledger.policy_driver.install(ledger)


class CommitteeSimBackend:
    """Shared scaffolding for simplified executable rival backends.

    Subclasses define ``backend_name``, build their phase pipeline in
    :meth:`build_pipeline` (the last phase must store a :class:`PackReport`
    under :attr:`pack_phase`), and may override :meth:`_decorate_report` to
    fill protocol-specific headline counters.

    The RNG fan-out, genesis staging, and per-round loop deliberately
    mirror :class:`~repro.core.protocol.CycLedger` so the scenario driver's
    assumptions hold unchanged: ``_next_leaders``/``_node_id`` exist for
    leader-crash targeting, ``adversary`` supports ramps and forced-offline
    windows, and the round context carries ``net``/``committees``/
    ``referee`` for partition resolution.
    """

    backend_name = "abstract"
    #: name of the pipeline phase whose report is the round's PackReport
    pack_phase = "block"
    #: chunk count for approximated erasure-coded (IDA-style) dissemination
    dissemination_chunks = 2

    def __init__(
        self,
        params: ProtocolParams,
        adversary: AdversaryConfig | None = None,
        capacity_fn: Callable[[int, np.random.Generator], int] | None = None,
        scenario: "Scenario | None" = None,
        pipeline: PhasePipeline | None = None,
        policy: "AdversaryPolicy | None" = None,
    ) -> None:
        self.params = params
        scenario_ss, policy_ss = init_shared_state(
            self, params, adversary, capacity_fn
        )
        # Rival protocols in Table I ship without incentives: reputation and
        # rewards exist (the result schema expects them) but never move.
        self.randomness = H("GENESIS_RANDOMNESS", self.backend_name, params.seed)
        self._stage_roles()
        self.reports: list[SimRoundReport] = []
        attach_pipeline(
            self,
            pipeline,
            scenario,
            scenario_ss,
            self.build_pipeline,
            policy=policy,
            policy_ss=policy_ss,
        )

    # -- subclass hooks ------------------------------------------------------
    def build_pipeline(self) -> PhasePipeline:
        """Construct this protocol's phase pipeline (subclass hook); the
        last phase must store a :class:`PackReport` under
        :attr:`pack_phase`."""
        raise NotImplementedError

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

    def _stage_roles(self) -> None:
        """Draw next-round key roles from the current randomness (uniform
        hash lotteries; rivals have no reputation-weighted selection)."""
        all_pks = [node.pk for node in self.nodes.values()]
        self._next_referee = rank_select(
            all_pks,
            self.round_number,
            self.randomness,
            REFEREE_ROLE,
            self.params.referee_size,
        )
        referee_set = set(self._next_referee)
        rest = [pk for pk in all_pks if pk not in referee_set]
        self._next_leaders = rank_select(
            rest, self.round_number, self.randomness, "LEADER", self.params.m
        )

    def _assign_round(self) -> tuple[list[CommitteeSpec], list[int], Channels]:
        """Per-shard committees: staged leaders plus sortition-assigned
        common members (Algorithm 1's VRF bucketing, shared with CycLedger).
        """
        params = self.params
        referee_ids = [self._node_id(pk) for pk in self._next_referee]
        leader_ids = [self._node_id(pk) for pk in self._next_leaders]
        key_and_referee = set(referee_ids) | set(leader_ids)

        for node in self.nodes.values():
            node.reset_round_state()
            node.online = not self.adversary.is_offline(node.node_id)

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
            members = [leader_ids[k], *committee_commons[k]]
            committees.append(
                CommitteeSpec(
                    index=k, leader=leader_ids[k], partial=(), members=members
                )
            )
            leader_node = self.nodes[leader_ids[k]]
            leader_node.is_leader = True
            leader_node.behavior = self.adversary.leader_behavior(leader_ids[k])
            for mid in members:
                node = self.nodes[mid]
                node.committee_id = k
                node.shard_state = self.shard_states[k]
                if not node.is_leader:
                    node.behavior = self.adversary.voter_behavior(mid)
        for rid in referee_ids:
            node = self.nodes[rid]
            node.is_referee = True
            node.behavior = self.adversary.voter_behavior(rid)

        self._channels = build_cycledger_topology(
            [(spec.members, spec.key_members) for spec in committees],
            referee_ids,
            into=self._channels,
        )
        return committees, referee_ids, self._channels

    # -- the main loop -------------------------------------------------------
    def run_round(self) -> SimRoundReport:
        """Execute one round: assign roles, generate workload, drive the
        phase pipeline, reconcile the chain, and stage the next round."""
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
            legacy_count=2 * params.m * params.tx_per_committee,
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
        pack: PackReport = phase_reports[self.pack_phase]
        packed_ids = (
            {tx.txid for tx in pack.block.transactions} if pack.block else set()
        )
        queue_stats: MempoolStats = self.mempool.settle(
            packed_ids, self.round_number, net.global_now
        )
        window = self.overlap_scheduler.observe_round(
            self.round_number,
            tuple(self.pipeline),
            self.pipeline.last_timings,
            net.now,
        )

        report = SimRoundReport(
            round_number=self.round_number,
            block=pack.block,
            submitted=arrivals,
            packed=pack.packed,
            cross_packed=pack.cross_packed,
            messages=round_metrics.total_messages(),
            bytes_sent=round_metrics.total_bytes(),
            sim_time=net.now,
            reliable_channels=channels.total_reliable(),
            dropped=net.dropped_messages,
            phase_sim_times=dict(self.pipeline.last_timings),
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

        # Stage the next round: hash-chain randomness, fresh role lotteries.
        self.randomness = H(
            self.backend_name, "NEXT_RANDOMNESS", self.round_number, self.randomness
        )
        self.round_number += 1
        self._stage_roles()
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
        """Reputation values grouped by node behaviour name (always flat
        zeros for rival backends — they ship without incentives)."""
        grouped: dict[str, list[float]] = {}
        for node in self.nodes.values():
            grouped.setdefault(node.behavior.name, []).append(
                self.reputation.get(node.pk, 0.0)
            )
        return grouped

    # -- shared phase machinery ----------------------------------------------
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
        chunks: int | None = None,
    ) -> None:
        """Approximate erasure-coded dissemination: the payload travels as
        ``chunks`` equal fragments per recipient (IDA-gossip's traffic
        shape without modelling the coding itself)."""
        chunks = chunks if chunks is not None else self.dissemination_chunks
        chunk_bytes = max(1, total_bytes // max(1, chunks))
        for recipient in recipients:
            if recipient == sender.node_id:
                continue
            for index in range(chunks):
                sender.send(recipient, tag, (index, payload), size=chunk_bytes)

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
        shards = {
            shard_of_address(output.address, self.params.m)
            for output in tagged.tx.outputs
        }
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
        """Assemble the round's block from per-committee final lists, append
        it to the chain, and apply it to every shard's UTXO view."""
        ordered: list[TaggedTx] = []
        per_committee: dict[int, int] = {}
        for index in sorted(final_lists):
            txs = final_lists[index]
            per_committee[index] = len(txs)
            ordered.extend(txs)
        if not ordered:
            return PackReport(
                block=None, packed=0, cross_packed=0, per_committee=per_committee
            )
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
        for state in self.shard_states:
            state.apply_block(block.transactions)
        for tx in block.transactions:
            if validate_transaction(tx, self.global_utxos) is ValidationResult.VALID:
                self.global_utxos.apply_transaction(tx)
        return PackReport(
            block=block,
            packed=len(ordered),
            cross_packed=sum(1 for t in ordered if t.cross_shard),
            per_committee=per_committee,
        )
