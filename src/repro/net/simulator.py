"""Event-driven network simulator.

A single ``heapq`` of ``(deliver_time, seq, message)`` drives the run.  The
simulator is deliberately allocation-light (slotted messages, one heap, no
per-message objects beyond the envelope) so complexity benchmarks with tens
of thousands of messages stay fast, per the HPC guide's advice to keep the
inner loop simple and measured.

Adversarial power (§III-C): "The adversary can change the order of messages
sent by non-faulty nodes for the restriction given in our network model."
We model this with an optional reorder hook that may stretch *partially
synchronous* channels up to ``partial_max_stretch``× and permute delivery
within the synchrony bound on Δ/Γ channels — the adversary can never violate
the synchrony assumption itself.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.metrics.counters import MetricsCollector
from repro.net.message import Message, payload_size
from repro.net.params import ChannelClass, NetworkParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import ProtocolNode


class SimulationError(RuntimeError):
    """Raised for protocol-level misuse of the network (e.g. sending on a
    channel the topology does not provide)."""


class Network:
    """The message fabric plus the event loop.

    ``channel_classifier(src, dst) -> str`` assigns each ordered pair a
    latency class; in strict mode a classifier returning ``None`` (no
    channel) makes :meth:`send` raise, enforcing the paper's light
    connection graph.
    """

    def __init__(
        self,
        params: NetworkParams,
        rng: np.random.Generator,
        metrics: MetricsCollector | None = None,
        strict_channels: bool = True,
        pool_envelopes: bool = False,
    ) -> None:
        self.params = params
        self.rng = rng
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.strict_channels = strict_channels
        self.nodes: dict[int, "ProtocolNode"] = {}
        self.now: float = 0.0
        # Sim-time consumed by completed rounds: :meth:`reset` folds the
        # outgoing round's ``now`` into this accumulator, so
        # :attr:`global_now` is a monotonic clock that never rewinds even
        # though per-round event math runs on the (byte-exact) round-local
        # ``now``.  The round-overlap engine composes its end-to-end
        # timeline on this clock.
        self.epoch: float = 0.0
        self._queue: list[tuple[float, int, Message | None, Callable | None]] = []
        self._seq = itertools.count()
        # Pre-drawn jitter block and its cursor (see :meth:`_fan_out`).
        self._jitter_block: np.ndarray | None = None
        self._jitter_idx = 0
        # Recycled Message envelopes (opt-in): the protocol allocates one
        # envelope per send and drops it right after the delivery callback;
        # pooling removes that allocate/GC churn.  Pooling is only enabled
        # on the orchestrated protocol path (CommitteeSimBackend), whose
        # handlers are audited to retain payloads, never envelopes; ad-hoc
        # Network users (tests, notebooks) keep allocation semantics and
        # may hold on to delivered messages freely.
        self.pool_envelopes = pool_envelopes
        self._pool: list[Message] = []
        self.channel_classifier: Callable[[int, int], str | None] = (
            lambda src, dst: ChannelClass.PARTIAL
        )
        # sender -> {recipient -> channel class}: the classifier's verdicts
        # for the pairs used since it was installed (see :meth:`_fan_out`).
        self._channel_rows: dict[int, dict[int, str]] = {}
        self.adversarial_scheduler: Callable[[Message], float] | None = None
        self.delivered_messages = 0
        self.dropped_messages = 0
        self.drop_filter: Callable[[Message], bool] | None = None
        # Fault-injection state (scenario layer): a node -> group map where
        # crossing groups means the link is cut, plus time-windowed delay
        # multipliers.  Both compose with drop_filter/adversarial_scheduler.
        self._partition: dict[int, int] | None = None
        self.partition_dropped = 0
        # Degradation windows, kept sorted by start time.  Delivery time is
        # monotone within a round, so lookups keep a cursor into the sorted
        # list and an active set instead of scanning every window per send
        # (see :meth:`_degradation_factor`).
        self._degradations: list[tuple[float, float, float, frozenset[str] | None]] = []
        self._deg_cursor = 0
        self._deg_active: list[tuple[float, float, float, frozenset[str] | None]] = []
        # Round-local activation ledger: node ids that allocated a mailbox
        # (registered their first handler) this round, in activation order.
        # Idle nodes never appear here — at large n that is most of them —
        # so per-round bookkeeping can touch |active| nodes, not n.
        self._activated: list[int] = []
        # Per-class base delays resolved once (params is frozen): a dict
        # probe per message instead of the string-compare chain in
        # NetworkParams.base_delay.
        self._base_delays: dict[str, float] = {
            ChannelClass.INTRA: params.delta,
            ChannelClass.KEY: params.gamma,
            ChannelClass.REFEREE: params.gamma,
            ChannelClass.PARTIAL: params.partial_base,
            ChannelClass.LOCAL: 0.0,
        }

    # -- wiring ------------------------------------------------------------
    def reset(self, metrics: MetricsCollector | None = None) -> None:
        """Rewind the fabric for a fresh round without re-registering nodes.

        The CycLedger orchestrator runs many rounds against one long-lived
        network; rebuilding the simulator (and re-attaching every node) per
        round dominated the small-scale hot path.  ``reset`` drops all
        pending events, rewinds the round-local clock, and swaps in a fresh
        metrics sink while keeping the node registry and RNG stream intact.

        The outgoing round's elapsed time is folded into :attr:`epoch`
        first, so the cross-round :attr:`global_now` clock stays monotonic:
        per-round phase timings compose into one continuous end-to-end
        timeline while every in-round delivery time remains byte-identical
        to the historical fresh-clock behaviour.
        """
        if metrics is not None:
            self.metrics = metrics
        self.epoch += self.now
        self.now = 0.0
        self._queue.clear()
        self._seq = itertools.count()
        self.channel_classifier = lambda src, dst: ChannelClass.PARTIAL
        self._channel_rows.clear()
        self.adversarial_scheduler = None
        self.delivered_messages = 0
        self.dropped_messages = 0
        self.drop_filter = None
        self._partition = None
        self.partition_dropped = 0
        self._degradations.clear()
        self._deg_cursor = 0
        self._deg_active.clear()
        self._activated.clear()

    def note_activation(self, node_id: int) -> None:
        """Record that a node allocated its mailbox this round (called by
        ``ProtocolNode.on`` exactly once per node per round)."""
        self._activated.append(node_id)

    @property
    def activated(self) -> list[int]:
        """Node ids that registered at least one handler since the last
        :meth:`reset`, in first-activation order."""
        return self._activated

    def add_node(self, node: "ProtocolNode") -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        node.attach(self)

    def set_channel_classifier(
        self, classifier: Callable[[int, int], str | None]
    ) -> None:
        """Install the topology.  The classifier is read as a pure function
        of the pair until the next call (or :meth:`reset`): verdicts are
        remembered per pair, so a topology that changes must be installed
        again."""
        self.channel_classifier = classifier
        self._channel_rows.clear()

    # -- fault injection ---------------------------------------------------
    def set_partitions(self, groups: "Iterable[Iterable[int]]") -> None:
        """Cut the fabric into disjoint node groups.

        Messages whose endpoints fall in different groups are silently
        dropped (counted in ``dropped_messages``/``partition_dropped``);
        nodes listed in no group form one implicit remainder group that can
        still talk among itself.  Partitions sit *below* the topology: the
        channel still exists, the packets just never arrive — which is
        exactly how a WAN cut looks to the protocol.
        """
        mapping: dict[int, int] = {}
        for group_id, group in enumerate(groups):
            for node_id in group:
                if node_id in mapping:
                    raise ValueError(f"node {node_id} in two partition groups")
                mapping[int(node_id)] = group_id
        self._partition = mapping or None

    def clear_partitions(self) -> None:
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def add_link_degradation(
        self,
        factor: float,
        start: float = 0.0,
        end: float = float("inf"),
        channels: "Iterable[str] | None" = None,
    ) -> None:
        """Multiply sampled delays by ``factor`` for sends in the sim-time
        window ``[start, end)``, optionally restricted to channel classes.

        Unlike the adversarial scheduler this deliberately may violate the
        paper's synchrony bounds (it models infrastructure faults, not the
        in-model adversary), and it applies to every channel class given.
        Degradations stack multiplicatively and are cleared by
        :meth:`reset`.
        """
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        self._degradations.append(
            (start, end, float(factor), frozenset(channels) if channels else None)
        )
        # Re-sort and rebuild the cursor state; registration is rare (a
        # handful of scenario events per run) while lookups run per send.
        self._degradations.sort(key=lambda window: window[0])
        self._deg_cursor = 0
        self._deg_active.clear()

    def _degradation_factor(self, channel_class: str) -> float:
        """Composite delay multiplier for sends at the current sim time.

        Windowed lookup over the start-sorted registry: the cursor admits
        windows whose start has passed, expired windows are dropped from
        the active set as they are seen, and the common case — no window
        currently active — costs one length check.  Callers already
        short-circuit entirely when no degradations are registered.
        """
        degradations = self._degradations
        cursor = self._deg_cursor
        now = self.now
        if cursor < len(degradations):
            while cursor < len(degradations) and degradations[cursor][0] <= now:
                self._deg_active.append(degradations[cursor])
                cursor += 1
            self._deg_cursor = cursor
        active = self._deg_active
        if not active:
            return 1.0
        factor = 1.0
        expired = False
        for start, end, multiplier, channels in active:
            if now >= end:
                expired = True
                continue
            if channels is None or channel_class in channels:
                factor *= multiplier
        if expired:
            self._deg_active = [w for w in active if now < w[1]]
        return factor

    # -- sending ---------------------------------------------------------------
    _JITTER_BLOCK = 1024
    _POOL_MAX = 1024

    def send(
        self,
        sender: int,
        recipient: int,
        tag: str,
        payload: Any,
        size: int | None = None,
    ) -> None:
        """Unicast: a one-recipient fan-out.  A node may address itself (the
        topology classifies that pair as the zero-delay LOCAL channel)."""
        self._fan_out(sender, (recipient,), tag, payload, size)

    def multicast(
        self,
        sender: int,
        recipients: Iterable[int],
        tag: str,
        payload: Any,
        size: int | None = None,
    ) -> None:
        """The paper's BROADCAST: one payload from ``sender`` to every id in
        ``recipients`` except the sender itself, in iteration order.

        Exactly the sequence of :meth:`send` calls it replaces — one
        ``seq`` and, on a delayed channel, one jitter draw per recipient
        that is not dropped, in recipient order; partition, ``drop_filter``,
        degradation and the adversarial scheduler are applied per recipient
        — but every recipient carries the *same* payload object, which is
        sized once, and the traffic is recorded once for the whole fan-out.
        If a recipient raises (unknown id, no channel) the recipients before
        it stay enqueued and counted, as with the loop of sends.
        """
        self._fan_out(
            sender, [r for r in recipients if r != sender], tag, payload, size
        )

    def _fan_out(
        self,
        sender: int,
        recipients: Iterable[int],
        tag: str,
        payload: Any,
        size: int | None,
    ) -> None:
        """The one latency/drop model: every message enters the queue here.

        Per recipient, in order: the recipient must exist and the topology
        must provide a channel (asked of ``channel_classifier`` the first
        time a pair is used and read from the sender's row after that; a
        refusal is never remembered, so it raises on every attempt); a
        partition cut drops silently; the payload is sized (once per
        fan-out); ``drop_filter`` may drop; otherwise the delay is
        ``base * (1 - jitter * u)`` with ``u`` the next draw of the jitter
        block (none on a zero-delay channel), times the active degradation
        factor, times the adversary's clamped stretch on PARTIAL links.
        Everything that cannot change between two recipients is read once,
        and the jitter cursor is written back when the loop ends, so
        ``drop_filter`` / ``adversarial_scheduler`` hooks must not send.

        Jitter is served from a pre-drawn block: a batched
        ``Generator.random(n)`` consumes the bit stream exactly like n
        scalar draws, so the served sequence equals ``float(rng.random())``
        per message (asserted by tests/test_perf_harness.py).
        """
        row = self._channel_rows.setdefault(sender, {})
        partition = self._partition
        sender_group = partition.get(sender, -1) if partition is not None else -1
        drop_filter = self.drop_filter
        scheduler = self.adversarial_scheduler
        degradations = self._degradations
        base_delays = self._base_delays
        jitter = self.params.jitter
        now = self.now
        queue = self._queue
        pool = self._pool
        seq = self._seq
        push = heapq.heappush
        new_envelope = object.__new__
        block = self._jitter_block
        block_len = 0 if block is None else len(block)
        idx = self._jitter_idx
        nbytes = size
        sent = 0
        try:
            for recipient in recipients:
                channel = row.get(recipient)
                if channel is None:
                    if recipient not in self.nodes:
                        raise SimulationError(f"unknown recipient {recipient}")
                    channel = self.channel_classifier(sender, recipient)
                    if channel is None:
                        if self.strict_channels:
                            raise SimulationError(
                                f"no channel from {sender} to {recipient}: the "
                                "topology does not provide this link (see §III-B)"
                            )
                        channel = ChannelClass.PARTIAL
                    row[recipient] = channel
                if (
                    partition is not None
                    and partition.get(recipient, -1) != sender_group
                ):
                    self.dropped_messages += 1
                    self.partition_dropped += 1
                    continue
                if nbytes is None:
                    nbytes = payload_size(payload)
                # A retired envelope if there is one, else a bare one: all
                # eight fields are written here either way, so a fresh
                # envelope does not pay the ``__init__`` frame on top.
                message = pool.pop() if pool else new_envelope(Message)
                message.sender = sender
                message.recipient = recipient
                message.tag = tag
                message.payload = payload
                message.size = nbytes
                message.channel = channel
                message.send_time = now
                message.deliver_time = 0.0
                if drop_filter is not None and drop_filter(message):
                    self.dropped_messages += 1
                    self._release(message)
                    continue
                base = base_delays.get(channel)
                if base is None:
                    base = self.params.base_delay(channel)  # raises: unknown
                deliver_time = now
                if base != 0.0:
                    if idx >= block_len:
                        self._jitter_block = block = self.rng.random(
                            self._JITTER_BLOCK
                        )
                        block_len = len(block)
                        idx = 0
                    delay = base * (1.0 - jitter * block.item(idx))
                    idx += 1
                    if degradations:
                        delay *= self._degradation_factor(channel)
                    if scheduler is not None and channel == ChannelClass.PARTIAL:
                        stretch = scheduler(message)
                        delay *= min(
                            max(stretch, 1.0), self.params.partial_max_stretch
                        )
                    deliver_time = now + delay
                message.deliver_time = deliver_time
                sent += 1
                push(queue, (deliver_time, next(seq), message, None))
        finally:
            self._jitter_idx = idx
            if sent:
                self.metrics.record_sends(sender, sent, nbytes)

    def _release(self, message: Message) -> None:
        """Retire an envelope back to the pool.

        The payload reference is cleared (pooling must never extend a
        payload's lifetime) and the tag is poisoned, so a handler that
        violated the no-retention contract reads an obviously-invalid
        envelope instead of another send's fields masquerading as its own.
        """
        if self.pool_envelopes and len(self._pool) < self._POOL_MAX:
            message.payload = None
            message.tag = "<pooled>"
            self._pool.append(message)

    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule a timer (used for the paper's timeout rules, e.g. the 2Γ
        wait in Lemma 7 and the 6Δ vote-collection window)."""
        if time < self.now:
            raise SimulationError("cannot schedule in the past")
        heapq.heappush(self._queue, (time, next(self._seq), None, callback))

    def call_after(self, delay: float, callback: Callable[[], None]) -> None:
        self.call_at(self.now + delay, callback)

    # -- event loop -----------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until the queue drains (or ``until`` is reached).

        Returns the simulation time after the last processed event.

        A delivery is dispatched here, not through
        :meth:`ProtocolNode.receive` and :meth:`_release`: the loop does
        what those two do (offline recipients hear nothing, the tag selects
        the handler at delivery time, unknown tags go to ``on_default``, the
        envelope is recycled after the callback) without two calls per
        message.  ``delivered_messages`` is brought up to date when the
        loop exits, however it exits.
        """
        queue = self._queue
        nodes = self.nodes
        pop = heapq.heappop
        pool = self._pool if self.pool_envelopes else None
        pool_max = self._POOL_MAX
        max_events = self.params.max_events
        processed = 0
        delivered = 0
        try:
            while queue:
                deliver_time, _, message, callback = queue[0]
                if until is not None and deliver_time > until:
                    self.now = until
                    return until
                pop(queue)
                self.now = deliver_time
                if message is not None:
                    node = nodes.get(message.recipient)
                    if node is not None:
                        # ``ProtocolNode.receive``, inlined.
                        if node.online:
                            handlers = node.handlers
                            handler = (
                                handlers.get(message.tag)
                                if handlers is not None
                                else None
                            )
                            if handler is not None:
                                handler(message)
                            else:
                                node.on_default(message)
                        delivered += 1
                    # ``_release``, inlined.
                    if pool is not None and len(pool) < pool_max:
                        message.payload = None
                        message.tag = "<pooled>"
                        pool.append(message)
                elif callback is not None:
                    callback()
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"event budget exceeded ({max_events}); "
                        "likely a message loop"
                    )
        finally:
            self.delivered_messages += delivered
        return self.now

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def global_now(self) -> float:
        """The continuous cross-round simulation clock.

        Monotonic over the whole run: :meth:`reset` accumulates each
        finished round's span into :attr:`epoch` instead of discarding it,
        so this clock never rewinds between rounds.  Mempool arrival
        stamps, transaction-age metrics and the sequential end-to-end
        timeline all read this clock.
        """
        return self.epoch + self.now
