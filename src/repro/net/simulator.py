"""Event-driven network simulator.

A single ``heapq`` ordered by ``(deliver_time, seq)`` drives the run.  The
simulator allocates per *fan-out*, not per message: a multicast is one
time-sorted run with only its head in the heap and one recycled envelope
(see :meth:`Network._fan_out`), so the heap and the cyclic
collector's working set grow with the fan-outs in flight, not with the
messages — the term that made a round's cost super-linear in n
(docs/perf.md, "The collector is the super-linear term").

Adversarial power (§III-C): "The adversary can change the order of messages
sent by non-faulty nodes for the restriction given in our network model."
The reordering this allows is the jitter: every delay is drawn in
``[base·(1-jitter), base]``, which permutes deliveries on every channel and
never exceeds the Δ/Γ bounds.  Lost messages are ``drop_filter`` and
partitions, a faulty sender is its node's behaviour, and faults outside the
model (links slower than Δ/Γ) are :meth:`Network.add_link_degradation`, which
lasts the rest of the round.
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


class TalliedRun:
    """The deliveries of one fan-out sent with a ``tally`` (see
    :meth:`Network.multicast`), none of them queued: entry ``k`` goes to
    ``recipients[k]`` over ``channels[k]`` at ``(times[k], seq0 + k)``.

    ``message`` holds what the entries share (sender, tag, payload, size,
    send time).  It is the run's own envelope and is never pooled, so the
    tally may read its payload after the run has passed; the fabric writes
    the per-entry fields into it when it delivers an entry the tally armed.
    ``passed`` is how many entries the loop has counted as delivered.
    """

    __slots__ = ("times", "recipients", "channels", "seq0", "message", "tally", "passed")

    def __init__(self, times, recipients, channels, seq0, message, tally) -> None:
        self.times = times
        self.recipients = recipients
        self.channels = channels
        self.seq0 = seq0
        self.message = message
        self.tally = tally
        self.passed = 0


class Network:
    """The message fabric plus the event loop.

    ``channel_classifier(src, dst) -> str`` assigns each ordered pair a
    latency class; a classifier returning ``None`` (no channel) makes
    :meth:`send` raise, enforcing the paper's light connection graph.

    Envelopes are recycled: a delivered :class:`Message` is valid only
    inside the handler call that receives it.  A handler keeps the payload
    or copies the fields it needs, never the envelope.
    """

    def __init__(
        self,
        params: NetworkParams,
        rng: np.random.Generator,
        metrics: MetricsCollector | None = None,
    ) -> None:
        self.params = params
        self.rng = rng
        self.metrics = metrics if metrics is not None else MetricsCollector()
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
        # nothing past it is ever compared).  Four kinds of entry:
        #   timer            (time, seq, None, callback)
        #   single envelope  (time, seq, message, None)
        #   run head         (time, seq, envelope, run)   -- see ``_fan_out``
        #   armed entry      (time, seq, envelope, tallied run) -- see ``arm``
        self._queue: list[tuple[float, int, Message | None, Any]] = []
        self._next_seq = 0
        # The ``seq`` of the event :meth:`run` processed last (once it has
        # stopped: just past the last seq allocated, so that every event
        # queued later is ahead of it): with :attr:`now`, the key up to
        # which every event is processed, which tells a tallied entry that
        # is already delivered from one still in flight (see :meth:`run`).
        self._now_seq = -1
        # The tallied runs with entries the loop has not counted yet.
        self._tallied: list[TalliedRun] = []
        # Pre-drawn jitter block and its cursor (see :meth:`_draws`).
        self._jitter_block: list[float] | None = None
        self._jitter_idx = 0
        # Recycled Message envelopes: a send or a whole fan-out takes one
        # envelope and is done with it after its last delivery callback;
        # pooling removes that allocate/GC churn, and lets the deliveries
        # of a fan-out share the one.
        self._pool: list[Message] = []
        # sender -> {recipient -> channel class}: the classifier's verdicts
        # for the pairs used since it was installed; the multicast routes
        # resolved from them, and their shapes by channel sequence (see
        # :meth:`_resolve`).
        self._channel_rows: dict[int, dict[int, str]] = {}
        self._routes: dict[tuple, tuple] = {}
        self._shapes: dict[tuple, tuple] = {}
        self.channel_classifier = _default_classifier
        self.delivered_messages = 0
        self.dropped_messages = 0
        self.drop_filter: Callable[[Message], bool] | None = None
        # Fault-injection state (scenario layer): a node -> group map where
        # crossing groups means the link is cut, plus per-class delay
        # multipliers for the round.  Both compose with drop_filter.
        self._partition: dict[int, int] | None = None
        self.partition_dropped = 0
        # channel class -> the product of this round's degradations that
        # hold it (see :meth:`add_link_degradation`); empty: none.
        self._degradation: dict[str, float] = {}
        # Round-local activation ledger: node ids that allocated a mailbox
        # (registered their first handler) this round, in activation order.
        # Idle nodes never appear here — at large n that is most of them —
        # so per-round bookkeeping can touch |active| nodes, not n.
        self._activated: list[int] = []
        # Per-class base delays resolved once (params is frozen): a dict
        # probe per route instead of the string-compare chain in
        # NetworkParams.base_delay.
        self._base_delays: dict[str, float] = {
            channel: params.base_delay(channel) for channel in ChannelClass.ALL
        }
        # channel class -> the shape of a one-recipient route on it (see
        # :meth:`_resolve`; a shape depends on ``params`` alone).
        self._singles: dict[str, tuple] = {
            channel: ((channel,), (base,), (1.0,), base != 0.0)
            for channel, base in self._base_delays.items()
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
        self._now_seq = -1
        for run in self._tallied:
            run.tally = None  # as when a run has passed: no cycle outlives it
        self._tallied.clear()
        self.channel_classifier = _default_classifier
        self.delivered_messages = 0
        self.dropped_messages = 0
        self.drop_filter = None
        self._partition = None
        self.partition_dropped = 0
        self._degradation.clear()
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
        (verdicts are remembered per pair); assigning a classifier — here
        or by :meth:`reset` — drops every remembered verdict."""
        return self._channel_classifier

    @channel_classifier.setter
    def channel_classifier(
        self, classifier: Callable[[int, int], str | None]
    ) -> None:
        self._channel_classifier = classifier
        self._channel_rows.clear()
        self._routes.clear()
        self._shapes.clear()

    # -- fault injection ---------------------------------------------------
    def set_partitions(self, groups: "Iterable[Iterable[int]]") -> None:
        """Cut the fabric into disjoint node groups.

        Messages whose endpoints fall in different groups are silently
        dropped (counted in ``dropped_messages``/``partition_dropped``);
        nodes listed in no group form one implicit remainder group that can
        still talk among itself, and no groups at all heal the fabric.
        Partitions sit *below* the topology: the channel still exists, the
        packets just never arrive — which is exactly how a WAN cut looks to
        the protocol.
        """
        mapping: dict[int, int] = {}
        for group_id, group in enumerate(groups):
            for node_id in group:
                if node_id in mapping:
                    raise ValueError(f"node {node_id} in two partition groups")
                mapping[int(node_id)] = group_id
        self._partition = mapping or None

    def partition_group(self, node_id: int) -> int:
        """The partition group ``node_id`` is in (-1: the remainder group,
        and every node's group while the fabric is whole)."""
        return -1 if self._partition is None else self._partition.get(node_id, -1)

    def add_link_degradation(
        self, factor: float, channels: "Iterable[str] | None" = None
    ) -> None:
        """Multiply the sampled delay of every later send this round by
        ``factor``, on the channel classes given (default: all).

        This deliberately may violate the paper's synchrony bounds (it
        models infrastructure faults, not the in-model adversary).
        Degradations stack: a class's multiplier is the product, in
        registration order, of the factors whose classes hold it.  They
        last the round: :meth:`reset` clears them.
        """
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        classes = set(channels) if channels else self._base_delays
        unknown = sorted(set(classes).difference(ChannelClass.ALL))
        if unknown:
            raise ValueError(
                f"unknown channel class {unknown[0]!r}; one of {ChannelClass.ALL}"
            )
        for channel in classes:
            self._degradation[channel] = (
                self._degradation.get(channel, 1.0) * float(factor)
            )

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
        topology classifies that pair as the zero-delay LOCAL channel).

        A used pair's channel is read from the sender's row, and its route
        is the recipient with the channel class's own shape: a unicast keeps
        no route of its own."""
        row = self._channel_rows.get(sender)
        if row is None:
            self._channel_rows[sender] = row = {}
        channel = row.get(recipient)
        if channel is None:
            channel = self._classify(sender, recipient, row)
        self._fan_out(
            sender, (recipient,), self._singles[channel], None, tag, payload, size
        )

    def multicast(
        self,
        sender: int,
        recipients: Iterable[int],
        tag: str,
        payload: Any,
        size: int | None = None,
        tally: Any = None,
    ) -> None:
        """The paper's BROADCAST: one payload from ``sender`` to every id in
        ``recipients`` except the sender itself, in iteration order.

        Exactly the sequence of :meth:`send` calls it replaces — one
        ``seq`` and, on a delayed channel, one jitter draw per recipient
        that is not dropped, in recipient order; partition, ``drop_filter``
        and degradation are applied per recipient
        — but every recipient carries the *same* payload object, which is
        sized once, and the traffic is recorded once for the whole fan-out.
        If a recipient raises (unknown id, no channel) the recipients before
        it stay enqueued and counted, as with the loop of sends.

        ``tally``, if given, is the sender session's count of what the
        payload does at each recipient, and the fan-out is *tallied*: it is
        decided and drawn as above, but no delivery is queued.  The fabric
        hands the session the :class:`TalliedRun` (``tally.add(run)``) and
        counts each entry as delivered at its own ``(time, seq)`` without
        calling a handler, unless the session has :meth:`arm`-ed it: then,
        at that key, ``tally.due(run, k)`` says whether the entry is still
        worth a delivery, and if so it is dispatched like any message.  The
        session must therefore judge at send time every delivery it leaves
        silent, and arm the entries where its state changes; the
        per-message oracle, which ignores ``tally``, calls every handler.
        """
        key = (sender, tuple(recipients))
        route = self._routes.get(key)
        if route is None:
            listed = key[1]
            if sender in listed:
                listed = tuple([r for r in listed if r != sender])
            route = self._resolve(sender, listed)
            if route[2] is None:
                self._routes[key] = route
        recipients, shape, error = route
        self._fan_out(sender, recipients, shape, error, tag, payload, size, tally)

    def _resolve(self, sender: int, recipients: tuple) -> tuple:
        """The *route* of a fan-out: ``(recipients, shape, error)``, what
        :meth:`_fan_out` needs of the topology.  :meth:`multicast` keeps it
        per ``(sender, recipients as given)`` while the classifier is
        installed.

        Per recipient, in order: the recipient must exist and the topology
        must provide a channel the fabric knows (asked of
        ``channel_classifier`` the first time a pair is used and read from
        the sender's row after that, so Table I's burden census reads the
        rows).  The *shape* is ``(channels, bases, scales, plain)``: the
        channel classes, their base delays, a 1.0 per recipient (the
        degradation of an undegraded round) and whether no base delay is
        zero; every route of one channel sequence shares it.  A refusal is
        remembered nowhere: the route stops before it and carries it in
        ``error``, so the recipients before it are sent, the fan-out raises
        after them, and the next attempt asks the classifier again.
        """
        row = self._channel_rows.get(sender)
        if row is None:
            self._channel_rows[sender] = row = {}
        channels = []
        error = None
        try:
            for recipient in recipients:
                channel = row.get(recipient)
                if channel is None:
                    channel = self._classify(sender, recipient, row)
                channels.append(channel)
        except Exception as refusal:  # the recipients before it are sent
            error = refusal
        channels = tuple(channels)
        shape = self._shapes.get(channels)
        if shape is None:
            bases = tuple([self._base_delays[channel] for channel in channels])
            shape = (channels, bases, (1.0,) * len(bases), 0.0 not in bases)
            self._shapes[channels] = shape
        if error is not None:
            recipients = recipients[: len(channels)]
        return recipients, shape, error

    def _classify(self, sender: int, recipient: int, row: dict[int, str]) -> str:
        """The channel class of a pair not in the sender's ``row`` yet, asked
        of ``channel_classifier`` and remembered there.  A refusal (an
        unknown recipient, no channel, a class the fabric does not know)
        raises and is remembered nowhere."""
        if recipient not in self.nodes:
            raise SimulationError(f"unknown recipient {recipient}")
        channel = self.channel_classifier(sender, recipient)
        if channel is None:
            raise SimulationError(
                f"no channel from {sender} to {recipient}: the "
                "topology does not provide this link (see §III-B)"
            )
        if channel not in self._base_delays:
            self.params.base_delay(channel)  # raises: an unknown class
        row[recipient] = channel
        return channel

    def _draws(self, count: int) -> list[float]:
        """The next ``count`` jitter draws, served from the pre-drawn block.

        A batched ``Generator.random(n)`` consumes the bit stream exactly
        like n scalar draws, so the served sequence equals
        ``float(rng.random())`` per message (asserted by
        tests/test_reference_equivalence.py).  The block is kept as a list
        (one ``tolist`` per block) and refilled only when a draw finds it
        spent, where a draw-by-draw loop would refill it.
        """
        block = self._jitter_block
        idx = self._jitter_idx
        end = idx + count
        if block is not None and end <= len(block):
            self._jitter_idx = end
            return block[idx:end]
        draws = [] if block is None else block[idx:]
        while len(draws) < count:
            block = self.rng.random(self._JITTER_BLOCK).tolist()
            idx = min(count - len(draws), len(block))
            draws += block[:idx]
            self._jitter_block = block
            self._jitter_idx = idx
        return draws

    def _fan_out(
        self,
        sender: int,
        recipients: tuple,
        shape: tuple,
        error: Exception | None,
        tag: str,
        payload: Any,
        size: int | None,
        tally: Any = None,
    ) -> None:
        """The one latency/drop model: every message enters the queue here,
        along a route: ``recipients`` with their ``shape`` (see
        :meth:`_resolve`) and the refusal, if any, that cut it short.

        Per recipient, in order: a partition cut drops silently; the
        payload is sized (once per fan-out); ``drop_filter`` may drop;
        otherwise the delay is ``base * (1 - jitter * u)`` with ``u`` the
        next jitter draw (none on a zero-delay channel), times the round's
        degradation of the channel.  Each call of ``drop_filter`` is handed
        an envelope of its own, made for the call, and it must not send.
        Without a partition or a filter every recipient survives, and on a
        route with no zero-delay channel the fan-out takes its draws as one
        slice; every delivery time is computed in one pass.  A route's
        refusal (see :meth:`_resolve`), or an error out of the per-recipient
        pass, is raised once the recipients before it are sent.

        All of that is decided here, at send time; what is kept of a
        surviving recipient is its delivery time, and the route's own
        recipient and channel sequences when every recipient survives.  The
        k-th survivor's ``seq`` is ``seq0 + k``, so the survivors sorted by
        time with a stable sort are in ``(time, seq)`` order — the heap's —
        and only the earliest needs to be in the heap: a fan-out is one
        *run* ``(order, times, recipients, channels, seq0)``, ``times`` to
        ``channels`` indexed by k and ``order`` holding the k still outside
        the heap, latest first.  :meth:`run` delivers the head and puts the
        run's next entry in its place.  One survivor is its own envelope on
        the heap.  A tallied fan-out (see :meth:`multicast`) is a
        :class:`TalliedRun` instead, with no entry in the heap.
        """
        channels, bases, scales, plain = shape
        partition = self._partition
        drop_filter = self.drop_filter
        now = self.now
        nbytes = size
        if partition is None and drop_filter is None:
            if nbytes is None and recipients:
                nbytes = payload_size(payload)
        else:
            sender_group = partition.get(sender, -1) if partition is not None else -1
            keep = []
            try:
                for k, recipient in enumerate(recipients):
                    if (
                        partition is not None
                        and partition.get(recipient, -1) != sender_group
                    ):
                        self.dropped_messages += 1
                        self.partition_dropped += 1
                        continue
                    if nbytes is None:
                        nbytes = payload_size(payload)
                    if drop_filter is not None and drop_filter(
                        Message(
                            sender, recipient, tag, payload, nbytes, channels[k],
                            now, 0.0,
                        )
                    ):
                        self.dropped_messages += 1
                        continue
                    keep.append(k)
            except Exception as refusal:  # the recipients before it are sent
                error = refusal
            if len(keep) < len(recipients):
                recipients = [recipients[k] for k in keep]
                channels = [channels[k] for k in keep]
                bases = [bases[k] for k in keep]
                scales = scales[: len(keep)]
        sent = len(recipients)
        if sent:
            if plain:  # the common case, inline: one slice of the block
                block = self._jitter_block
                idx = self._jitter_idx
                end = idx + sent
                if block is not None and end <= len(block):
                    self._jitter_idx = end
                    draws = block[idx:end]
                else:
                    draws = self._draws(sent)
            else:  # a zero-delay channel takes no draw
                served = iter(self._draws(sent - bases.count(0.0)))
                draws = [next(served) if base else 0.0 for base in bases]
            degradation = self._degradation
            jitter = self.params.jitter
            if degradation:
                scales = [degradation.get(channel, 1.0) for channel in channels]
            times = []
            for base, u, scale in zip(bases, draws, scales):
                times.append(now + base * (1.0 - jitter * u) * scale)
            self.metrics.record_sends(sender, sent, nbytes)
            seq0 = self._next_seq
            self._next_seq = seq0 + sent
            if tally is not None:
                # The run's own envelope, never pooled (see TalliedRun).
                message = object.__new__(Message)
                message.sender = sender
                message.tag = tag
                message.payload = payload
                message.size = nbytes
                message.send_time = now
                tallied = TalliedRun(times, recipients, channels, seq0, message, tally)
                self._tallied.append(tallied)
                tally.add(tallied)
            else:
                run = None
                head = 0
                if sent > 1:
                    order = sorted(range(sent), key=times.__getitem__)
                    order.reverse()
                    head = order.pop()
                    run = (order, times, recipients, channels, seq0)
                # A retired envelope if there is one, else a bare one: all
                # eight fields are written here either way, so a fresh
                # envelope does not pay the ``__init__`` frame on top.  A
                # run's envelope carries what its deliveries share;
                # :meth:`run` writes the other three fields per delivery.
                pool = self._pool
                message = pool.pop() if pool else object.__new__(Message)
                message.sender = sender
                message.recipient = recipients[head]
                message.tag = tag
                message.payload = payload
                message.size = nbytes
                message.channel = channels[head]
                message.send_time = now
                message.deliver_time = head_time = times[head]
                heapq.heappush(self._queue, (head_time, seq0 + head, message, run))
        if error is not None:
            raise error

    def arm(self, run: TalliedRun, k: int) -> None:
        """Queue entry ``k`` of a tallied run at its own ``(time, seq)``:
        when the loop reaches it, ``run.tally.due(run, k)`` decides whether
        it is delivered with a handler call.  It takes no new ``seq``, and
        is counted as delivered with the run's other entries either way.
        Arm an entry at most once, and only one the loop has not passed."""
        heapq.heappush(
            self._queue, (run.times[k], run.seq0 + k, run.message, run)
        )

    def passed(self, run: TalliedRun, k: int) -> bool:
        """Whether the loop is past entry ``k`` of a tallied run: it comes
        before the event being processed (or, between calls of
        :meth:`run`, before every event not yet processed)."""
        return (run.times[k], run.seq0 + k) < (self.now, self._now_seq)

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
        of the run.  The deliveries of a run share its one envelope —
        ``recipient``, ``channel`` and ``deliver_time`` are rewritten for
        each — and an envelope is retired (payload dropped, tag poisoned, so
        a handler that kept it reads an obviously invalid envelope and not
        another send's fields) after its last callback: an envelope is valid
        only inside the handler call.  (A handler that re-entered ``run``
        would have the rest of its run delivered, and its envelope
        rewritten, under it; none does.)  ``delivered_messages`` is brought
        up to date when the loop exits, however it exits.

        A tallied run's entries (see :meth:`multicast`) are events of the
        message-by-message loop that call no handler, so they are processed
        by position alone: each is delivered once the loop is past its
        ``(time, seq)``, and counted in ``delivered_messages`` when the loop
        exits.  If the heap drains first, the loop goes on through them as
        that loop would: :attr:`now` becomes the latest one's time, or
        ``until`` if one lies beyond it.  Until then :attr:`pending` and
        :meth:`in_flight` list them.  An armed entry is delivered at its key
        with a handler call if its tally says it is due, and counted with
        the run either way.  The event budget counts only heap events.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run to a time in the past")
        queue = self._queue
        nodes = self.nodes
        pop = heapq.heappop
        replace = heapq.heapreplace
        pool = self._pool
        pool_max = self._POOL_MAX
        max_events = self.params.max_events
        processed = 0
        delivered = 0
        try:
            while queue:
                deliver_time, seq, message, run = queue[0]
                if until is not None and deliver_time > until:
                    self.now = until
                    self._now_seq = self._next_seq - 0.5
                    return until
                self.now = deliver_time
                self._now_seq = seq
                if message is None:
                    pop(queue)
                    if run is not None:
                        run()  # a timer: the callback is in the run's place
                else:
                    if run is None:
                        pop(queue)
                        retire = True
                        node = nodes.get(message.recipient)
                    elif run.__class__ is tuple:
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
                            retire = True
                        k = seq - seq0
                        message.recipient = recipient = recipients[k]
                        message.channel = channels[k]
                        message.deliver_time = deliver_time
                        node = nodes.get(recipient)
                    else:
                        # An armed entry of a tallied run.
                        pop(queue)
                        retire = False
                        node = None
                        k = seq - run.seq0
                        if run.tally.due(run, k):
                            message.recipient = recipient = run.recipients[k]
                            message.channel = run.channels[k]
                            message.deliver_time = deliver_time
                            node = nodes.get(recipient)
                            if node is not None:
                                delivered -= 1  # counted with its run
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
            if self._tallied:
                # The heap is empty: go on through the tallied entries.
                latest = max(max(run.times) for run in self._tallied)
                if until is not None and latest > until:
                    self.now = until
                elif latest > self.now:
                    self.now = latest
                self._now_seq = self._next_seq - 0.5
        finally:
            if self._tallied:
                delivered += self._pass_tallied()
            self.delivered_messages += delivered
        return self.now

    def _pass_tallied(self) -> int:
        """Count the tallied entries the loop is past that are not counted
        yet, and forget the runs it is past entirely."""
        now = self.now
        counted = 0
        live = []
        for run in self._tallied:
            total = len(run.times)
            latest = max(run.times)
            if latest < now or (
                latest == now and self._now_seq >= run.seq0 + total - 1
            ):
                done = total  # the common case: a drain
            else:
                done = total - len(self._waiting(run))
            counted += done - run.passed
            run.passed = done
            if done < total:
                live.append(run)
            else:
                run.tally = None  # nothing of it can come up again
        self._tallied = live
        return counted

    def _waiting(self, run: TalliedRun) -> list[int]:
        """The entries of a tallied run after the loop's position (``now``
        and the ``seq`` of the event processed last): not delivered yet."""
        position = (self.now, self._now_seq)
        seq0 = run.seq0
        return [
            k for k, time in enumerate(run.times) if (time, seq0 + k) > position
        ]

    @property
    def pending(self) -> int:
        """Events not yet processed: timers plus undelivered messages (a
        tallied entry counts until the loop is past its key)."""
        return sum(
            1 if message is None or run is None
            else 1 + len(run[0]) if run.__class__ is tuple
            else 0  # an armed entry: listed with its run
            for _, _, message, run in self._queue
        ) + sum(len(self._waiting(run)) for run in self._tallied)

    def in_flight(self) -> Iterator[tuple]:
        """Every undelivered message, in delivery order, as ``(deliver_time,
        seq, sender, recipient, tag, size, channel, send_time)``: a
        read-only view for tests and tools, so that nothing outside this
        class depends on how the queue is laid out."""
        rows = []
        waiting = [
            (run.message, run.times, run.recipients, run.channels, run.seq0,
             self._waiting(run))
            for run in self._tallied
        ]
        for deliver_time, seq, message, run in self._queue:
            if message is None or (run is not None and run.__class__ is not tuple):
                continue  # a timer, or an armed entry: listed with its run
            if run is None:
                rows.append((deliver_time, seq, message, message.recipient, message.channel))
            else:
                order, times, recipients, channels, seq0 = run
                waiting.append(
                    (message, times, recipients, channels, seq0, (seq - seq0, *order))
                )
        for message, times, recipients, channels, seq0, ks in waiting:
            rows += [
                (times[k], seq0 + k, message, recipients[k], channels[k])
                for k in ks
            ]
        return iter(sorted(
            (when, number, message.sender, recipient, message.tag,
             message.size, channel, message.send_time)
            for when, number, message, recipient, channel in rows
        ))

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
