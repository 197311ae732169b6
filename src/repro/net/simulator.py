"""Event-driven network simulator.

A single ``heapq`` ordered by ``(deliver_time, seq)`` drives the run.  The
simulator allocates per *fan-out*, not per message: a multicast is one
time-sorted run with only its head in the heap and, on a pooled network, one
envelope (see :meth:`Network._fan_out`), so the heap and the cyclic
collector's working set grow with the fan-outs in flight, not with the
messages — the term that made a round's cost super-linear in n
(docs/perf.md, "The collector is the super-linear term").

Adversarial power (§III-C): "The adversary can change the order of messages
sent by non-faulty nodes for the restriction given in our network model."
We model this with an optional reorder hook that may stretch *partially
synchronous* channels up to ``partial_max_stretch``× and permute delivery
within the synchrony bound on Δ/Γ channels — the adversary can never violate
the synchrony assumption itself.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from repro.metrics.counters import MetricsCollector
from repro.net.message import Message, payload_size
from repro.net.params import ChannelClass, NetworkParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import ProtocolNode


class SimulationError(RuntimeError):
    """Raised for protocol-level misuse of the network (e.g. sending on a
    channel the topology does not provide)."""


def _default_classifier(src: int, dst: int) -> str:
    """The permissive topology of a fresh or reset network."""
    return ChannelClass.PARTIAL


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
        # The event heap, ordered by ``(time, seq)`` (``seq`` is unique, so
        # nothing past it is ever compared).  Three kinds of entry:
        #   timer            (time, seq, None, callback)
        #   single envelope  (time, seq, message, None)
        #   run head         (time, seq, envelope, run)   -- see ``_fan_out``
        self._queue: list[tuple[float, int, Message | None, Any]] = []
        self._next_seq = 0
        # Pre-drawn jitter block and its cursor (see :meth:`_fan_out`).
        self._jitter_block: np.ndarray | None = None
        self._jitter_idx = 0
        # Recycled Message envelopes (opt-in): a send or a whole fan-out
        # takes one envelope and is done with it after its last delivery
        # callback; pooling removes that allocate/GC churn, and lets the
        # deliveries of a fan-out share the one.  Pooling is only enabled
        # on the orchestrated protocol path (CommitteeSimBackend), whose
        # handlers are audited to retain payloads, never envelopes; ad-hoc
        # Network users (tests, notebooks) keep allocation semantics and
        # may hold on to delivered messages freely.
        self.pool_envelopes = pool_envelopes
        self._pool: list[Message] = []
        # sender -> {recipient -> channel class}: the classifier's verdicts
        # for the pairs used since it was installed (see :meth:`_fan_out`).
        self._channel_rows: dict[int, dict[int, str]] = {}
        self.channel_classifier = _default_classifier
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
        self._next_seq = 0
        self.channel_classifier = _default_classifier
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

    @property
    def channel_classifier(self) -> Callable[[int, int], str | None]:
        """The topology: ``(src, dst) -> channel class``, or ``None`` for no
        link.  It is read as a pure function of the pair while installed
        (verdicts are remembered per pair); assigning a classifier — here,
        through :meth:`set_channel_classifier` or by :meth:`reset` — drops
        every remembered verdict."""
        return self._channel_classifier

    @channel_classifier.setter
    def channel_classifier(
        self, classifier: Callable[[int, int], str | None]
    ) -> None:
        self._channel_classifier = classifier
        self._channel_rows.clear()

    def set_channel_classifier(
        self, classifier: Callable[[int, int], str | None]
    ) -> None:
        """Install the topology (the same as assigning
        :attr:`channel_classifier`)."""
        self.channel_classifier = classifier

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
        Each hook call is handed an envelope of its own, made for the call.

        All of that is decided here, at send time; what the loop keeps of
        a surviving recipient is its delivery time and channel.  The k-th
        survivor's ``seq`` is ``seq0 + k``, so the survivors sorted by time
        with a stable sort are in ``(time, seq)`` order — the heap's — and
        only the earliest needs to be in the heap: a fan-out is one *run*
        ``(order, times, recipients, channels, seq0)``, the last four
        indexed by k and ``order`` holding the k still outside the heap,
        latest first.  :meth:`run` delivers the head and puts the run's next
        entry in its place.  One survivor is its own envelope on the heap.

        Jitter is served from a pre-drawn block: a batched
        ``Generator.random(n)`` consumes the bit stream exactly like n
        scalar draws, so the served sequence equals ``float(rng.random())``
        per message (asserted by tests/test_reference_equivalence.py).
        """
        row = self._channel_rows.get(sender)
        if row is None:
            self._channel_rows[sender] = row = {}
        partition = self._partition
        sender_group = partition.get(sender, -1) if partition is not None else -1
        drop_filter = self.drop_filter
        scheduler = self.adversarial_scheduler
        hooked = drop_filter is not None or scheduler is not None
        degradations = self._degradations
        base_delays = self._base_delays
        jitter = self.params.jitter
        now = self.now
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
                if hooked:
                    probe = Message(
                        sender, recipient, tag, payload, nbytes, channel, now, 0.0
                    )
                    if drop_filter is not None and drop_filter(probe):
                        self.dropped_messages += 1
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
                        stretch = scheduler(probe)
                        delay *= min(
                            max(stretch, 1.0), self.params.partial_max_stretch
                        )
                    deliver_time = now + delay
                # Most sends have one recipient: the first survivor stays in
                # locals, the second makes the lists.
                if sent:
                    if sent == 1:
                        times = [head_time]
                        survivors = [head_to]
                        channels = [head_channel]
                    times.append(deliver_time)
                    survivors.append(recipient)
                    channels.append(channel)
                else:
                    head_time = deliver_time
                    head_to = recipient
                    head_channel = channel
                sent += 1
        finally:
            # Also on the way out of a raise: the recipients before the one
            # that raised are sent.
            self._jitter_idx = idx
            if sent:
                self.metrics.record_sends(sender, sent, nbytes)
                seq0 = self._next_seq
                self._next_seq = seq0 + sent
                run = None
                head = 0
                if sent > 1:
                    order = sorted(range(sent), key=times.__getitem__)
                    order.reverse()
                    head = order.pop()
                    run = (order, times, survivors, channels, seq0)
                    head_time = times[head]
                    head_to = survivors[head]
                    head_channel = channels[head]
                # A retired envelope if there is one, else a bare one: all
                # eight fields are written here either way, so a fresh
                # envelope does not pay the ``__init__`` frame on top.  A
                # run's envelope carries what its deliveries share;
                # :meth:`run` writes the other three fields per delivery.
                pool = self._pool
                message = pool.pop() if pool else object.__new__(Message)
                message.sender = sender
                message.recipient = head_to
                message.tag = tag
                message.payload = payload
                message.size = nbytes
                message.channel = head_channel
                message.send_time = now
                message.deliver_time = head_time
                heapq.heappush(
                    self._queue, (head_time, seq0 + head, message, run)
                )

    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule a timer (used for the paper's timeout rules, e.g. the 2Γ
        wait in Lemma 7 and the 6Δ vote-collection window)."""
        if time < self.now:
            raise SimulationError("cannot schedule in the past")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._queue, (time, seq, None, callback))

    def call_after(self, delay: float, callback: Callable[[], None]) -> None:
        self.call_at(self.now + delay, callback)

    # -- event loop -----------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until the queue drains (or ``until`` is reached).

        Returns the simulation time after the last processed event.  The
        clock never rewinds: an ``until`` before :attr:`now` raises.

        A delivery is dispatched here, the only dispatch there is: offline
        recipients hear nothing, the tag selects the handler at delivery
        time, unknown tags go to ``on_default`` — no call per message
        besides the handler's.
        A run head is replaced by the run's next entry *before* the handler
        is called, so whatever the handler sends is ordered against the rest
        of the run.  On a pooled network the deliveries of a run share its
        one envelope — ``recipient``, ``channel`` and ``deliver_time`` are
        rewritten for each — and an envelope is retired (payload dropped,
        tag poisoned, so a handler that kept it reads an obviously invalid
        envelope and not another send's fields) after its last callback;
        otherwise every delivery gets an envelope of its own, which the
        recipient may keep.  (A handler that re-entered ``run`` would have
        the rest of its run delivered, and its envelope rewritten, under it;
        none does.)  ``delivered_messages`` is brought up to date when the
        loop exits, however it exits.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run to a time in the past")
        queue = self._queue
        nodes = self.nodes
        pop = heapq.heappop
        replace = heapq.heapreplace
        pool = self._pool if self.pool_envelopes else None
        pool_max = self._POOL_MAX
        max_events = self.params.max_events
        processed = 0
        delivered = 0
        try:
            while queue:
                deliver_time, seq, message, run = queue[0]
                if until is not None and deliver_time > until:
                    self.now = until
                    return until
                self.now = deliver_time
                if message is None:
                    pop(queue)
                    if run is not None:
                        run()  # a timer: the callback is in the run's place
                else:
                    if run is None:
                        pop(queue)
                        retire = pool is not None
                        recipient = message.recipient
                    else:
                        order, times, recipients, channels, seq0 = run
                        if order:
                            after = order.pop()
                            replace(
                                queue,
                                (times[after], seq0 + after, message, run),
                            )
                            retire = False
                        else:
                            pop(queue)
                            retire = pool is not None
                        if pool is None:
                            shared = message
                            message = object.__new__(Message)
                            message.sender = shared.sender
                            message.tag = shared.tag
                            message.payload = shared.payload
                            message.size = shared.size
                            message.send_time = shared.send_time
                        k = seq - seq0
                        message.recipient = recipient = recipients[k]
                        message.channel = channels[k]
                        message.deliver_time = deliver_time
                    node = nodes.get(recipient)
                    if node is not None:
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
                    if retire and len(pool) < pool_max:
                        message.payload = None
                        message.tag = "<pooled>"
                        pool.append(message)
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
        """Events not yet processed: timers plus undelivered messages."""
        return sum(
            1 if message is None or run is None else 1 + len(run[0])
            for _, _, message, run in self._queue
        )

    def in_flight(self) -> Iterator[tuple]:
        """Every undelivered message, in delivery order, as ``(deliver_time,
        seq, sender, recipient, tag, size, channel, send_time)``: a
        read-only view for tests and tools, so that nothing outside this
        class depends on how the queue is laid out."""
        rows = []
        for deliver_time, seq, message, run in self._queue:
            if message is None:
                continue
            if run is None:
                waiting = [(deliver_time, seq, message.recipient, message.channel)]
            else:
                order, times, recipients, channels, seq0 = run
                waiting = [
                    (times[k], seq0 + k, recipients[k], channels[k])
                    for k in (seq - seq0, *order)
                ]
            rows += [
                (when, number, message.sender, recipient, message.tag,
                 message.size, channel, message.send_time)
                for when, number, recipient, channel in waiting
            ]
        return iter(sorted(rows))

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
