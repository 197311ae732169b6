"""The fabric machine: ``Network`` held to the per-message oracle, step by step.

A :class:`Fabric` is three fabrics of eight nodes built from one seed: the
``Network`` under test, a ``Network`` that sends each fan-out as its loop of
``send`` calls (a chunked one as one unicast per recipient per chunk), and
``reference_impls.NaiveNetwork``.  :meth:`Fabric.step` applies one step to
the three and holds them equal on what a caller sees after it: the raised
error's text, what ``run`` returned, ``now``, ``pending``, ``in_flight()``,
the delivered and dropped counts, the metric rows and totals, and the log of
deliveries and timers.  The two ``Network``s must also agree on the jitter
position (the oracle draws scalar by scalar: its generator is compared
through delivery times).

A step is a tuple led by its kind; ``STEPS`` draws each, and ``_Side.apply``
says what it does.  A tallied fan-out's entry to ``r`` is armed when ``arm``
divides ``7 * number + r`` (``number`` counts the side's payloads) and due
when ``due`` does; every handler ignores the entries that are not both, as
the tally contract asks.  A handled ``TALLY`` or ``PING`` delivery takes the
next ``script`` action, if any, and fans out again.  A delivery is logged as
``(handler | default, recipient, sender, tag, payload, size, channel,
send_time, deliver_time, now, pending)``, bar ``WARM`` filler.

:data:`FabricMachine` draws the steps as a hypothesis ``RuleBasedStateMachine``
and drains the fabric at teardown (:func:`machine`: one of some kinds only);
:func:`play` runs an explicit step list.
"""

from __future__ import annotations

import collections
from functools import partial
from types import SimpleNamespace

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)
from reference_impls import NaiveNetwork

from repro.backends.base import RivalBackend
from repro.crypto.pki import PKI
from repro.net import Network, NetworkParams, ProtocolNode, SimulationError
from repro.net.params import ChannelClass

NODES = 8
EVERYONE = tuple(range(NODES))
INTRA, KEY, PARTIAL, LOCAL = (
    ChannelClass.INTRA, ChannelClass.KEY, ChannelClass.PARTIAL, ChannelClass.LOCAL,
)
CLASSES = (INTRA, KEY, PARTIAL, LOCAL)
DELTA, GAMMA = NetworkParams().delta, NetworkParams().gamma
HANDLED = ("MSG", "PING", "TALLY", "CHUNK", "WARM")  # other tags: on_default
_KEYS = [PKI().generate(("fabric", i)) for i in range(NODES)]


class Tap(ProtocolNode):
    """A node whose ``on_default`` hands what it hears to ``hear(kind,
    message)``."""

    __slots__ = ("hear",)

    def __init__(self, node_id, keypair, hear):
        super().__init__(node_id, keypair)
        self.hear = hear

    def on_default(self, message):
        self.hear("default", message)


def classifier(classes, refused=None):
    return lambda s, d: None if d == refused else classes[(s + d) % len(classes)]


def _armed(number, recipient, modulus):
    return (7 * number + recipient) % modulus == 0


class _Side:
    """One of the three fabrics: ``kind`` is ``fan`` (the ``Network`` under
    test), ``loop`` or ``naive``."""

    def __init__(self, kind, seed, jitter, max_events, classes):
        factory = NaiveNetwork if kind == "naive" else Network
        self.kind = kind
        self.net = net = factory(
            NetworkParams(jitter=jitter, max_events=max_events),
            np.random.default_rng(seed),
        )
        self.nodes = [Tap(i, key, self.hear) for i, key in enumerate(_KEYS)]
        for node in self.nodes:
            net.add_node(node)
            for tag in HANDLED:
                node.on(tag, self.handler)
        net.channel_classifier = classifier(classes)
        self.log, self.kept = [], []
        self.actions = collections.deque()
        self.numbers = iter(range(10**9))

    def add(self, run):  # the tally of a tallied fan-out
        _, number, arm, _due = run.message.payload
        for k, recipient in enumerate(run.recipients):
            if _armed(number, recipient, arm):
                self.net.arm(run, k)

    def due(self, run, k):
        return _armed(run.message.payload[1], run.recipients[k], run.message.payload[3])

    def handler(self, message):
        self.hear("handler", message)

    def hear(self, kind, message):
        tag, payload, recipient = message.tag, message.payload, message.recipient
        if tag == "WARM" or tag == "TALLY" and not all(
            _armed(payload[1], recipient, modulus) for modulus in payload[2:]
        ):
            return
        net = self.net
        self.log.append((
            kind, recipient, message.sender, tag, payload, message.size,
            message.channel, message.send_time, message.deliver_time, net.now,
            net.pending,
        ))
        self.kept.append(message)
        if kind == "handler" and tag in ("TALLY", "PING") and self.actions:
            action = self.actions.popleft()
            if action is not None:
                self.fan_out(recipient, *action)

    def payload(self, tag):
        return (tag, next(self.numbers), b"\x01" * 32, [1, 2, 3])

    def multicast(self, sender, recipients, tag, payload, size, tally=None):
        node = self.nodes[sender]
        if self.kind == "loop":
            for recipient in recipients:
                if recipient != sender:
                    node.send(recipient, tag, payload, size)
        else:
            node.multicast(recipients, tag, payload, size, tally=tally)

    def fan_out(self, sender, recipients, arm, due):
        if arm is None:
            self.multicast(sender, recipients, "MSG", self.payload("MSG"), None)
        else:
            payload = ("TALLY", next(self.numbers), arm, due)
            self.multicast(sender, recipients, "TALLY", payload, 1, self)

    def timer(self, step):
        net = self.net
        self.log.append(("timer", net.now, net.pending, list(net.in_flight())))
        if step is not None:
            self.apply(step)

    def apply(self, step):
        """``send (sender, recipient, tag, size)``, ``multicast (sender,
        recipients, tag, size, as_generator)``, ``tally (sender, recipients,
        arm, due)``, ``script (actions)`` (an action: ``(recipients, arm,
        due)``, untallied if ``arm`` is None), ``chunks (sender, recipients,
        chunks, total_bytes)``, ``at (time, step | None)`` (a timer that logs
        and applies the step), ``partition (groups)``, ``filter (ids |
        None)``, ``degrade (factor, classes | None)``, ``classify (classes,
        refused)``, ``online (node, flag)``, ``leave (node, reclassify)``
        (the classifier installed again after, if ``reclassify``), ``listen
        (node)`` (a ``LATE`` handler), ``reset``, ``run (until | None)``,
        ``warm (count)`` (one-byte sends from 1 to 2, then a drain)."""
        kind, *args = step
        net, nodes = self.net, self.nodes
        if kind == "send":
            sender, recipient, tag, size = args
            nodes[sender].send(recipient, tag, self.payload(tag), size)
        elif kind == "multicast":
            sender, listed, tag, size, as_generator = args
            recipients = iter(listed) if as_generator else listed
            self.multicast(sender, recipients, tag, self.payload(tag), size)
        elif kind == "tally":
            self.fan_out(*args)
        elif kind == "script":
            self.actions.extend(args[0])
        elif kind == "chunks":
            sender, listed, chunks, total = args
            if self.kind == "fan":
                RivalBackend._chunked_multicast(
                    SimpleNamespace(dissemination_chunks=chunks),
                    nodes[sender], listed, "CHUNK", "txlist", total,
                )
            else:  # one unicast per recipient, bar the sender, per chunk
                size = max(1, total // max(1, chunks))
                for recipient in listed:
                    for _ in range(chunks if recipient != sender else 0):
                        nodes[sender].send(recipient, "CHUNK", "txlist", size)
        elif kind == "at":
            net.call_at(args[0], partial(self.timer, args[1]))
        elif kind == "partition":
            net.set_partitions(args[0])
        elif kind == "filter":
            dropped = args[0]
            net.drop_filter = None if dropped is None else (
                lambda message: message.recipient in dropped
            )
        elif kind == "degrade":
            net.add_link_degradation(*args)
        elif kind == "classify":
            net.channel_classifier = classifier(*args)
        elif kind == "online":
            nodes[args[0]].online = args[1]
        elif kind == "leave":
            net.nodes.pop(args[0], None)
            if args[1]:  # the topology changes with the registry
                net.channel_classifier = net.channel_classifier
        elif kind == "listen":
            nodes[args[0]].on("LATE", self.handler)
        elif kind == "reset":
            net.reset()
        elif kind == "run":
            return net.run(args[0])
        elif kind == "warm":
            for _ in range(args[0]):
                net.send(1, 2, "WARM", b"w", size=1)
            return net.run()
        else:
            raise AssertionError(f"unknown step {step!r}")

    def step(self, step):
        """Apply ``step``; what a caller sees after it (``log``: this step's
        deliveries and timers)."""
        mark = len(self.log)
        error = result = None
        try:
            result = self.apply(step)
        except (SimulationError, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        net = self.net
        metrics = net.metrics
        return {
            "error": error,
            "result": result,
            "now": net.now,
            "pending": net.pending,
            "in_flight": list(net.in_flight()),
            "counts": (net.delivered_messages, net.dropped_messages, net.partition_dropped),
            "rows": metrics.summary_rows(),
            "totals": (metrics.total_messages(), metrics.total_bytes()),
            "log": self.log[mark:],
        }


def _jitter(net):
    return net.rng.bit_generator.state, net._jitter_idx, net._jitter_block


class Fabric:
    """The three sides; :attr:`records` holds, per step, what the side under
    test showed after it."""

    def __init__(self, seed=0, jitter=0.25, max_events=200_000, classes=(INTRA,)):
        self.sides = [
            _Side(kind, seed, jitter, max_events, classes)
            for kind in ("fan", "loop", "naive")
        ]
        self.net = self.sides[0].net
        self.records = []

    def step(self, step):
        fan, loop, naive = [side.step(step) for side in self.sides]
        for other in (loop, naive):
            for key, seen in fan.items():
                assert seen == other[key], (step, key, seen, other[key])
        assert _jitter(self.net) == _jitter(self.sides[1].net), step
        self.records.append(fan)
        return fan

    @property
    def log(self):
        return [entry for record in self.records for entry in record["log"]]


def play(steps, **setup):
    """A fresh :class:`Fabric` (``setup``: its keywords) after ``steps``."""
    fabric = Fabric(**setup)
    for step in steps:
        fabric.step(step)
    return fabric


# -- the steps, drawn ----------------------------------------------------------
_node = st.integers(0, NODES - 1)
_sender = st.integers(0, 2) | _node
_ids = st.integers(0, NODES + 1)  # 8 and 9 are no node's
# Recipient lists: the sender among them, repeats, an unknown id mid-list, ().
LISTS = ((1, 2, 3, 4, 5, 6, 7), (0, 5, 5, 2, 0), (6, 7), (3, 99, 4), ())
_recipients = st.sampled_from(LISTS) | st.lists(_node, max_size=10).map(tuple)
_size = st.none() | st.integers(1, 500)
_instant = st.integers(0, 16).map(lambda k: k * DELTA / 4) | st.floats(0.0, 4 * DELTA)
_classes = st.lists(st.sampled_from(ChannelClass.ALL), min_size=1, max_size=4).map(tuple)
_fan_out = st.tuples(_recipients, st.none() | st.integers(1, 4), st.integers(1, 3))

STEPS = {
    "send": st.tuples(
        st.just("send"), _sender, _ids, st.sampled_from(["MSG", "NOPE", "LATE", "PING"]),
        _size,
    ),
    "multicast": st.tuples(
        st.just("multicast"), _sender, _recipients,
        st.sampled_from(["MSG", "LATE", "PING"]), _size, st.booleans(),
    ),
    "tally": st.tuples(st.just("tally"), _sender, _recipients, st.integers(1, 4),
                       st.integers(1, 3)),
    "script": st.tuples(st.just("script"), st.lists(st.none() | _fan_out, max_size=4)),
    "chunks": st.tuples(st.just("chunks"), _sender, st.lists(_ids, max_size=6),
                        st.integers(0, 4), st.integers(1, 900)),
    "partition": st.tuples(
        st.just("partition"),
        st.lists(_node, unique=True, max_size=6).map(
            lambda ids: [ids[: len(ids) // 2], ids[len(ids) // 2 :]] if ids else []
        ),
    ),
    "filter": st.tuples(st.just("filter"), st.none() | st.frozensets(_node)),
    "degrade": st.tuples(
        st.just("degrade"), st.floats(1.0, 4.0),
        st.none() | st.lists(st.sampled_from(ChannelClass.ALL), min_size=1, max_size=2),
    ),
    "classify": st.tuples(st.just("classify"), _classes, st.none() | _node),
    "online": st.tuples(st.just("online"), _node, st.booleans()),
    "listen": st.tuples(st.just("listen"), _node),
    "reset": st.just(("reset",)),
    "run": st.tuples(st.just("run"), st.none() | _instant),
    "warm": st.tuples(st.just("warm"), st.sampled_from([1, 1019, 1023, 1024, 1030])),
}
# What a timer may do from inside the run.
_INNER = ("send", "multicast", "online", "listen", "partition", "filter", "degrade",
          "classify")
STEPS["at"] = st.tuples(
    st.just("at"), _instant, st.none() | st.one_of([STEPS[kind] for kind in _INNER])
)
KINDS = (*STEPS, "leave")  # a drawn leave is StepMachine.leave's


class StepMachine(RuleBasedStateMachine):
    """What the rules of :func:`machine` share; teardown drains the fabric.

    Budget: :data:`FabricMachine`, of every kind, runs 50 examples of up to
    25 steps; the kind-limited runs in tests/test_net_simulator.py state
    their own.
    """

    barred = frozenset()  # kinds a fabric of a small event budget cannot take
    last = None  # the last multicast step

    def build(self, seed, jitter, max_events, classes, final):
        self.fabric = Fabric(seed, jitter, max_events, classes)
        self.final = final
        if max_events < 200_000:
            # A tallied entry is no heap event; a warm step's sends overrun.
            self.barred = frozenset({"tally", "script", "warm"})

    def again(self):
        """The last multicast once more (as a list if it was a generator,
        and the other way round): its route comes up again."""
        self.fabric.step((*self.last[:-1], not self.last[-1]))

    def leave(self, node):
        # Steers round the departure divergences (the xfail cases in
        # tests/test_net_simulator.py).
        if any(row[4] == "TALLY" for row in self.fabric.net.in_flight()):
            return
        remembered = any(
            node in row for side in self.fabric.sides[:2]
            for row in side.net._channel_rows.values()
        )
        self.fabric.step(("leave", node, remembered))

    def teardown(self):
        if hasattr(self, "fabric"):
            if self.final is not None:
                self.fabric.step(self.final)
            drained = self.fabric.step(("run", None))
            assert drained["error"] or drained["pending"] == 0


def _rule(kind):
    def play_step(self, step):
        if kind == "multicast":
            self.last = step
        self.fabric.step(step)

    if kind == "leave":
        return rule(node=_node)(StepMachine.leave)
    play_step.__name__ = kind
    fired = rule(step=STEPS[kind])(play_step)
    if kind in ("tally", "script", "warm"):
        return precondition(lambda self: kind not in self.barred)(fired)
    return fired


def machine(kinds, final=None):
    """A :class:`StepMachine` with the rules of ``kinds`` only; every example
    ends with one step of kind ``final``, if given, before the drain (a
    tallied one on a fabric of the full event budget)."""
    rules = {kind: _rule(kind) for kind in kinds}
    budgets = [200_000] if final == "tally" else [200_000, 200_000, 200_000, 5]
    rules["build"] = initialize(
        seed=st.integers(0, 3),
        jitter=st.sampled_from([0.25, 0.0]),
        max_events=st.sampled_from(budgets),
        classes=_classes,
        final=st.none() if final is None else STEPS[final],
    )(StepMachine.build)
    if "multicast" in kinds:
        rules["again"] = precondition(lambda self: self.last is not None)(
            rule()(StepMachine.again)
        )
    return type("FabricMachine", (StepMachine,), rules)


def run_machine(kinds, final, max_examples, step_count=15):
    """Run :func:`machine`: at least ``max_examples`` steps of kind ``final``,
    whichever rules hypothesis switches off in an example."""
    run_state_machine_as_test(machine(kinds, final), settings=settings(
        max_examples=max_examples, stateful_step_count=step_count, deadline=None,
    ))


FabricMachine = machine(KINDS)
FabricMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=25, deadline=None
)
