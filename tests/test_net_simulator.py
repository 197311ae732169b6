"""Network simulator: delivery, latency classes, timers, strict channels."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from fabric_machine import (
    CLASSES,
    DELTA,
    EVERYONE,
    GAMMA,
    INTRA,
    KEY,
    LISTS,
    LOCAL,
    NODES,
    FabricMachine,
    Tap,
    classifier,
    play,
    run_machine,
)
from reference_impls import NaiveNetwork

from repro.crypto.pki import PKI
from repro.net import (
    Network,
    NetworkParams,
    ProtocolNode,
    SimulationError,
)
from repro.net.params import ChannelClass


class Recorder(ProtocolNode):
    """Keeps a copy of every MSG delivery (envelopes are recycled)."""

    def __init__(self, nid, kp):
        super().__init__(nid, kp)
        self.received = []
        self.on("MSG", lambda msg: self.received.append(copy.copy(msg)))


@pytest.fixture
def net_and_nodes(rng):
    pki = PKI()
    net = Network(NetworkParams(), rng)
    nodes = [Recorder(i, pki.generate(i)) for i in range(4)]
    for node in nodes:
        net.add_node(node)
    net.channel_classifier = lambda s, d: ChannelClass.INTRA
    return net, nodes


def test_send_and_deliver(net_and_nodes):
    net, nodes = net_and_nodes
    nodes[0].send(1, "MSG", "hello")
    net.run()
    assert len(nodes[1].received) == 1
    assert nodes[1].received[0].payload == "hello"
    assert nodes[1].received[0].sender == 0


def test_intra_delay_within_delta(net_and_nodes):
    net, nodes = net_and_nodes
    nodes[0].send(1, "MSG", "x")
    t = net.run()
    assert 0 < t <= net.params.delta


def test_multicast_excludes_self(net_and_nodes):
    net, nodes = net_and_nodes
    nodes[0].multicast(range(4), "MSG", "b")
    net.run()
    assert len(nodes[0].received) == 0
    assert all(len(nodes[i].received) == 1 for i in (1, 2, 3))


def test_unknown_tag_ignored(net_and_nodes):
    net, nodes = net_and_nodes
    nodes[0].send(1, "NOPE", "x")
    net.run()  # must not raise
    assert nodes[1].received == []


def test_strict_channel_raises(rng):
    pki = PKI()
    net = Network(NetworkParams(), rng)
    nodes = [Recorder(i, pki.generate(100 + i)) for i in range(2)]
    for node in nodes:
        net.add_node(node)
    net.channel_classifier = lambda s, d: None
    with pytest.raises(SimulationError):
        nodes[0].send(1, "MSG", "x")


def test_unknown_recipient_raises(net_and_nodes):
    net, nodes = net_and_nodes
    with pytest.raises(SimulationError):
        nodes[0].send(99, "MSG", "x")


def test_duplicate_node_raises(net_and_nodes, rng):
    net, nodes = net_and_nodes
    with pytest.raises(ValueError):
        net.add_node(Recorder(0, PKI().generate("dup")))


def test_timers_fire_in_order(net_and_nodes):
    net, _ = net_and_nodes
    fired = []
    net.call_after(5.0, lambda: fired.append("b"))
    net.call_after(1.0, lambda: fired.append("a"))
    net.run()
    assert fired == ["a", "b"]
    assert net.now == 5.0


def test_timer_in_past_raises(net_and_nodes):
    net, _ = net_and_nodes
    net.call_after(1.0, lambda: None)
    net.run()
    with pytest.raises(SimulationError):
        net.call_at(0.5, lambda: None)


def test_run_until(net_and_nodes):
    net, nodes = net_and_nodes
    net.call_after(10.0, lambda: nodes[0].send(1, "MSG", "late"))
    net.run(until=5.0)
    assert net.now == 5.0
    assert net.pending == 1
    net.run()
    assert len(nodes[1].received) == 1


def test_offline_node_sends_and_hears_nothing(net_and_nodes):
    net, nodes = net_and_nodes
    nodes[1].online = False
    nodes[0].send(1, "MSG", "x")
    nodes[1].send(0, "MSG", "y")
    net.run()
    assert nodes[1].received == []
    assert nodes[0].received == []


def test_metrics_count_messages(net_and_nodes):
    net, nodes = net_and_nodes
    nodes[0].send(1, "MSG", "payload")
    nodes[0].send(2, "MSG", "payload")
    net.run()
    assert net.metrics.total_messages() == 2
    assert net.metrics.total_bytes() > 0


def test_event_budget_guard(rng):
    pki = PKI()
    params = NetworkParams(max_events=50)
    net = Network(params, rng)

    class Looper(ProtocolNode):
        def __init__(self, nid, kp):
            super().__init__(nid, kp)
            self.on("PING", lambda m: self.send(m.sender, "PING", None))

    a, b = Looper(0, pki.generate("a")), Looper(1, pki.generate("b"))
    net.add_node(a)
    net.add_node(b)
    net.channel_classifier = lambda s, d: ChannelClass.INTRA
    a.send(1, "PING", None)
    with pytest.raises(SimulationError):
        net.run()


def test_reset_rewinds_fabric_but_keeps_nodes(net_and_nodes):
    from repro.metrics.counters import MetricsCollector

    net, nodes = net_and_nodes
    net.drop_filter = lambda msg: True
    net.set_partitions([(0, 1), (2, 3)])
    net.add_link_degradation(3.0)
    nodes[0].send(1, "MSG", "dropped")
    nodes[0].send(2, "MSG", "partitioned")
    net.call_after(50.0, lambda: None)
    assert net.pending == 1 and net.dropped_messages == 2

    fresh_metrics = MetricsCollector()
    net.reset(metrics=fresh_metrics)
    assert net.now == 0.0
    assert net.pending == 0
    assert net.metrics is fresh_metrics
    assert net.dropped_messages == 0
    assert net.partition_dropped == 0
    assert net.drop_filter is None
    assert net.partition_group(2) == -1
    # Registry intact and the classifier back to the permissive default:
    # a previously partitioned pair delivers again.
    nodes[0].send(2, "MSG", "after-reset")
    net.run()
    assert [m.payload for m in nodes[2].received] == ["after-reset"]


def test_drop_filter(net_and_nodes):
    net, nodes = net_and_nodes
    net.drop_filter = lambda msg: msg.payload == "drop"
    nodes[0].send(1, "MSG", "drop")
    nodes[0].send(1, "MSG", "keep")
    net.run()
    assert [m.payload for m in nodes[1].received] == ["keep"]
    assert net.dropped_messages == 1


# -- fault injection: partitions and degradations ----------------------------
def test_partition_cuts_cross_group_links_only(net_and_nodes):
    net, nodes = net_and_nodes
    net.set_partitions([(0, 1), (2,)])
    nodes[0].send(1, "MSG", "same-group")
    nodes[0].send(2, "MSG", "cross-group")
    nodes[2].send(0, "MSG", "cross-back")
    net.run()
    assert [m.payload for m in nodes[1].received] == ["same-group"]
    assert nodes[2].received == []
    assert nodes[0].received == []
    assert net.partition_dropped == 2
    assert net.dropped_messages == 2
    net.set_partitions([])  # no groups: the fabric is whole again
    nodes[0].send(2, "MSG", "healed")
    net.run()
    assert [m.payload for m in nodes[2].received] == ["healed"]


def test_unlisted_nodes_form_implicit_remainder_group(net_and_nodes):
    net, nodes = net_and_nodes
    net.set_partitions([(0,)])
    nodes[2].send(3, "MSG", "rest-to-rest")
    nodes[2].send(0, "MSG", "rest-to-island")
    net.run()
    assert [m.payload for m in nodes[3].received] == ["rest-to-rest"]
    assert nodes[0].received == []


def test_partition_rejects_overlapping_groups(net_and_nodes):
    net, _ = net_and_nodes
    with pytest.raises(ValueError):
        net.set_partitions([(0, 1), (1, 2)])


def test_link_degradation_channel_filter(rng):
    pki = PKI()
    net = Network(NetworkParams(jitter=0.0), rng)
    nodes = [Recorder(i, pki.generate(500 + i)) for i in range(2)]
    for node in nodes:
        net.add_node(node)
    net.channel_classifier = lambda s, d: ChannelClass.INTRA
    net.add_link_degradation(2.0, channels=(ChannelClass.KEY,))
    nodes[0].send(1, "MSG", "other-class")  # INTRA unaffected by KEY spike
    t = net.run()
    assert t == pytest.approx(net.params.delta)
    net.add_link_degradation(5.0, channels=(ChannelClass.INTRA,))
    nodes[0].send(1, "MSG", "slow")  # INTRA degraded 5x from now on
    assert net.run() == pytest.approx(t + 5 * net.params.delta)


def test_degradations_stack_multiplicatively(rng):
    pki = PKI()
    net = Network(NetworkParams(jitter=0.0), rng)
    nodes = [Recorder(i, pki.generate(600 + i)) for i in range(2)]
    for node in nodes:
        net.add_node(node)
    net.channel_classifier = lambda s, d: ChannelClass.INTRA
    net.add_link_degradation(2.0)
    net.add_link_degradation(3.0)
    nodes[0].send(1, "MSG", "x")
    assert net.run() == pytest.approx(6 * net.params.delta)


def test_degradation_factor_below_one_rejected(net_and_nodes):
    net, _ = net_and_nodes
    with pytest.raises(ValueError):
        net.add_link_degradation(0.5)


def test_degradation_on_an_unknown_channel_class_rejected(net_and_nodes):
    """A misspelled class used to be stored and then matched no send, so
    the degradation was a silent no-op."""
    net, _ = net_and_nodes
    with pytest.raises(ValueError, match=r"unknown channel class 'parital'; one of \("
                       r"'intra', 'key', 'referee', 'partial', 'local'\)"):
        net.add_link_degradation(3.0, channels=(ChannelClass.KEY, "parital"))
    net.add_link_degradation(3.0, channels=(ChannelClass.PARTIAL,))  # spelled right


# -- the fabric machine: Network, its loop of sends and the oracle -----------
# tests/fabric_machine.py applies each step to a Network, to a Network that
# sends every fan-out as the loop of sends it stands for, and to
# reference_impls.NaiveNetwork, and holds the three equal after it.  Below:
# the machine's hypothesis test, its kind-limited runs, and named step lists.
TestFabricMachine = FabricMachine.TestCase
_CONDITIONS = {"partition", "filter", "degrade", "classify", "online", "warm", "run"}


def _fan(recipients, size, *before):
    """``before``, then one multicast from 0 and a drain."""
    return [*before, ("multicast", 0, recipients, "MSG", size, False), ("run", None)]


MULTICAST_CASES = {
    "plain": _fan(EVERYONE, 96),
    "size-none": _fan(EVERYONE, None),
    "empty-recipients": _fan((), None),
    "only-the-sender": _fan((0,), 8),
    "sender-and-duplicates-in-recipients": _fan((3, 0, 3, 5, 0), 8),
    "partition": _fan(EVERYONE, 96, ("partition", [[0, 1, 2], [3, 4]])),
    "drop-filter": _fan(EVERYONE, None, ("filter", frozenset({2, 5}))),
    "drop-filter-drops-all": _fan(EVERYONE, 96, ("filter", frozenset(EVERYONE))),
    "stacked-degradations": _fan(
        EVERYONE, 96, ("at", 2.0, None), ("run", None), ("classify", CLASSES, None),
        ("degrade", 3.0, None), ("degrade", 1.5, [KEY]), ("degrade", 1.1, [KEY, INTRA]),
    ),
    "local-no-draws": _fan(EVERYONE, 96, ("classify", (LOCAL,), None)),
    "offline-sender": _fan(EVERYONE, 96, ("online", 0, False)),
    "straddles-jitter-block-refill": _fan(
        EVERYONE, 96, ("warm", Network._JITTER_BLOCK - 3)
    ),
    "unknown-recipient-mid-list": _fan((1, 2, 99, 3), 96),
    "no-channel-mid-list-strict": _fan(EVERYONE, None, ("classify", (INTRA,), 4)),
}


@pytest.mark.parametrize("case", MULTICAST_CASES)
def test_multicast_equals_loop_of_sends(case):
    play(MULTICAST_CASES[case])


def test_multicast_equivalence_cases_do_what_they_say():
    """Guard the table above against vacuous cases."""

    def sent(case):  # what the multicast left
        return play(MULTICAST_CASES[case]).records[-2]

    state = sent("partition")
    assert state["counts"][1:] == (5, 5) and len(state["in_flight"]) == 2
    state = sent("unknown-recipient-mid-list")
    assert state["error"] == "SimulationError: unknown recipient 99"
    assert sorted(row[3] for row in state["in_flight"]) == [1, 2]
    assert state["rows"] == [("setup", "common", 2, 192, 0)]
    state = sent("drop-filter-drops-all")
    assert state["rows"] == [] and state["totals"] == (0, 0)
    refill = Network._JITTER_BLOCK - 3
    fabric = play([("warm", refill)])
    assert fabric.net._jitter_idx == refill
    fabric.step(("multicast", 0, EVERYONE, "MSG", None, False))
    assert fabric.net._jitter_idx == NODES - 1 - 3


def test_multicast_equals_loop_of_sends_property():
    run_machine({"multicast", "at", *_CONDITIONS}, "multicast", 90, step_count=6)


def test_chunk_fan_out_is_the_per_chunk_unicast_loop():
    """IDA-style dissemination as one recipient-major fan-out leaves what
    one unicast per recipient per chunk, carrying the payload as the fan-out
    does, left."""
    run_machine({"chunks", *_CONDITIONS}, "chunks", 70, step_count=6)


# A fan-out resolves its recipients into a route once while the classifier
# is installed; partition, drop_filter and degradation are read per send.
def test_a_route_is_reused_only_while_it_is_right():
    run_machine({"multicast", "send", "reset", *_CONDITIONS - {"warm"}}, "multicast",
                100, step_count=24)


def test_route_story_cases_do_what_they_say():
    """Guard the routes against vacuous steps: a route is kept and reused
    across switches of the fabric, and a new classifier drops it."""
    fan = ("multicast", 0, LISTS[0], "FAN", None, False)
    steps = [
        fan, ("partition", [[1, 2], [3, 0]]), fan, ("filter", frozenset({4})), fan,
        ("partition", []), ("degrade", 2.0, None),
        ("multicast", 0, LISTS[0], "FAN", None, True),
        ("filter", None), ("classify", CLASSES[::-1], None), fan,
        ("classify", (KEY,), 7), ("multicast", 1, LISTS[2], "FAN", None, False),
        ("multicast", 0, LISTS[1], "FAN", None, True),
        ("send", 3, 3, "ONE", None),
    ]
    story = play(steps, seed=2, classes=CLASSES).records
    errors = [state["error"] for state in story]
    assert errors[12] == (
        "SimulationError: no channel from 1 to 7: the topology does not provide "
        "this link (see §III-B)"
    )
    assert errors.count(None) == len(steps) - 1
    flights = [state["in_flight"] for state in story]
    # 7; only 3 shares 0's side of the cut (with or without the filter);
    # healed, 4 filtered: 6; all 7; the one before the refusal; 0 -> (5, 5,
    # 2); a self-send
    assert [len(heap) for heap in flights] == [
        7, 7, 8, 8, 9, 9, 9, 15, 15, 15, 22, 22, 23, 26, 27,
    ]
    # The fan-out after the classifier changed uses the new channels.
    new = [row for row in flights[10] if row not in flights[9]]
    assert [(row[3], row[6]) for row in sorted(new, key=lambda row: row[3])] == [
        (d, classifier(CLASSES[::-1])(0, d)) for d in LISTS[0]
    ]
    assert [row[2:5] + row[6:7] for row in flights[14] if row[4] == "ONE"] == [
        (3, 3, "ONE", KEY)
    ]
    fabric = play([fan, ("multicast", 0, LISTS[0], "FAN", None, True)],
                  seed=2, classes=CLASSES)
    assert len(fabric.net._routes) == 1
    fabric.step(("classify", CLASSES[::-1], None))
    assert not fabric.net._routes and not fabric.net._channel_rows


def _dispatch(until=None):
    """Every branch of the delivery path: an offline recipient, an unknown
    tag, a handler registered while its message is in flight (by a timer
    that fires before any delivery: the tag is looked up on arrival), a
    reply from inside a handler, and a message to a node that leaves the
    registry before it arrives."""
    return [
        ("online", 1, False),
        ("send", 0, 1, "MSG", None),
        ("send", 0, 2, "NOPE", None),
        ("send", 0, 3, "LATE", None),
        ("send", 0, 2, "MSG", None),
        ("at", 0.0, ("listen", 3)),
        ("script", [((0,), None, None)]),
        ("at", 3.0, ("send", 0, 4, "PING", None)),
        ("at", 4.0, ("send", 0, 2, "MSG", None)),
        ("at", 4.0, ("leave", 2, False)),
        ("run", until),
    ]


def test_run_dispatches_like_receive_and_release():
    fabric = play(_dispatch())
    heard = sorted(entry[1:2] + entry[:1] + entry[3:4]
                   for entry in fabric.log if entry[0] != "timer")
    assert heard == [
        (0, "handler", "MSG"),
        (2, "default", "NOPE"),
        (2, "handler", "MSG"),
        (3, "handler", "LATE"),
        (4, "handler", "PING"),
    ]
    # The offline recipient ran nothing and is still a delivery; the
    # orphan is neither.
    drained = fabric.records[-1]
    assert drained["counts"][0] == 6 and drained["totals"][0] == 7
    for side in fabric.sides:
        assert {(m.tag, m.payload) for m in side.kept} == {("<pooled>", None)}
        assert side.net._pool


@pytest.mark.parametrize(
    "until, budget, delivered, error",
    [
        pytest.param(2.0, 200_000, 4, None, id="until"),
        pytest.param(3.0, 200_000, 4, None, id="until-on-a-timer"),
        pytest.param(None, 3, 3, "SimulationError: event budget exceeded (3); "
                     "likely a message loop", id="event-budget"),
        pytest.param(None, 200_000, 6, None, id="drained"),
    ],
)
def test_delivered_messages_right_however_run_exits(until, budget, delivered, error):
    ran = play(_dispatch(until), max_events=budget).records[-1]
    assert (ran["counts"][0], ran["error"]) == (delivered, error)


# -- tallied fan-outs: a delivery that calls no handler costs no event ------
# ``NaiveNetwork`` ignores ``tally`` and calls every handler; the machine's
# handlers do nothing for a tallied delivery its tally would not arm as due,
# as the contract asks.  ``Network`` must call the same handlers in the same
# order (an armed entry at its own ``(time, seq)``), none for a silent entry,
# and agree on every count inside timers, after each cut at ``until`` and
# drained.
def test_tallied_entries_are_delivered_by_position_with_message_by_message_accounting():
    run_machine({"tally", "script", "multicast", "at", "run"}, "tally", 150,
                step_count=10)


def test_a_tallied_fan_out_calls_only_the_handlers_it_arms():
    """The count the contract buys: of a tallied fan-out, only the armed
    entries that are due get a handler call, at their own key; the silent
    ones still count as delivered, and the clock drains to the last."""

    def story(due):
        # No jitter: 1, 2, 4 and 5 hear at delta in that order, 3 at gamma.
        fabric = play([("tally", 0, (1, 2, 3, 4, 5), 2, due), ("run", None)],
                      jitter=0.0, classes=(KEY, INTRA, INTRA))
        drained = fabric.records[-1]
        calls = [(entry[1], entry[2], entry[-2], entry[-1]) for entry in fabric.log]
        return calls, (drained["now"], drained["counts"][0], drained["pending"])

    # Fan-out 0 arms the even recipients, 2 and 4, and neither is due.
    assert story(3) == ([], (GAMMA, 5, 0))
    assert story(2) == ([(2, 0, DELTA, 3), (4, 0, DELTA, 2)], (GAMMA, 5, 0))


# Where the fabric parts from the per-message loop once a node leaves the
# registry; the drawn runs steer round both.
@pytest.mark.xfail(strict=True, raises=AssertionError)
@pytest.mark.parametrize("fan", [
    pytest.param(("tally", 0, (1, 2, 3), 1, 1), id="a-tallied-entry-is-counted"),
    pytest.param(("send", 1, 2, "MSG", None), id="a-used-row-skips-the-registry"),
    pytest.param(("multicast", 1, (2, 3), "MSG", None, False), id="so-does-a-route"),
])
def test_a_departed_node_is_gone_for_the_fabric_as_for_the_loop(fan):
    play([fan, ("leave", 2, False), fan, ("run", None)])


def test_delivered_messages_accumulates_over_resumed_runs(net_and_nodes):
    net, nodes = net_and_nodes
    nodes[0].send(1, "MSG", "early")
    net.call_after(10.0, lambda: nodes[0].send(1, "MSG", "late"))
    net.run(until=5.0)
    assert net.delivered_messages == 1
    net.run()
    assert net.delivered_messages == 2


# -- per-round channel rows --------------------------------------------------
def _counting_classifier(verdict, asked):
    def classify(src, dst):
        asked.append((src, dst))
        return verdict

    return classify


def test_channel_class_asked_once_per_pair_until_the_topology_changes(
    net_and_nodes,
):
    net, nodes = net_and_nodes
    asked = []
    net.channel_classifier = _counting_classifier(ChannelClass.INTRA, asked)
    for _ in range(3):
        nodes[0].send(1, "MSG", "x")
        nodes[0].multicast([1, 2], "MSG", "y")
    nodes[1].send(0, "MSG", "the reverse pair is its own entry")
    assert asked == [(0, 1), (0, 2), (1, 0)]

    # Replaced mid-run, from a handler: the next send on a used pair is
    # classified by the new topology.
    def rewire(msg):
        net.channel_classifier = _counting_classifier(ChannelClass.KEY, asked)
        nodes[0].send(1, "AFTER", "z")

    nodes[3].on("REWIRE", rewire)
    nodes[1].on("AFTER", lambda msg: nodes[1].received.append(copy.copy(msg)))
    nodes[0].send(3, "REWIRE", None)
    net.run()
    assert [m.channel for m in nodes[1].received] == [ChannelClass.INTRA] * 6 + [
        ChannelClass.KEY
    ]
    assert asked[3:] == [(0, 3), (0, 1)]


def test_reset_drops_the_channel_rows(net_and_nodes):
    net, nodes = net_and_nodes
    nodes[0].send(1, "MSG", "intra")
    net.run()
    net.reset()
    nodes[0].send(1, "MSG", "default-topology")
    net.run()
    assert [m.channel for m in nodes[1].received] == [
        ChannelClass.INTRA,
        ChannelClass.PARTIAL,
    ]


@pytest.mark.parametrize("via", ["send", "multicast"])
def test_missing_channel_and_unknown_recipient_raise_on_every_attempt(
    net_and_nodes, via
):
    net, nodes = net_and_nodes
    asked = []
    net.channel_classifier = (
        lambda s, d: asked.append((s, d)) or (None if d == 2 else ChannelClass.INTRA)
    )

    def attempt(recipient):
        if via == "send":
            nodes[0].send(recipient, "MSG", "x")
        else:
            nodes[0].multicast([1, recipient, 3], "MSG", "x")

    for _ in range(3):
        with pytest.raises(SimulationError, match="no channel from 0 to 2"):
            attempt(2)
        with pytest.raises(SimulationError, match="unknown recipient 99"):
            attempt(99)
    # The refusal was asked for each time, never remembered.
    assert asked.count((0, 2)) == 3
    assert net.pending == (0 if via == "send" else 6)


def test_assigning_the_classifier_directly_drops_the_rows_too(net_and_nodes):
    net, nodes = net_and_nodes
    nodes[1].on("AFTER", lambda msg: nodes[1].received.append(copy.copy(msg)))

    def rewire(msg):
        net.channel_classifier = lambda s, d: ChannelClass.KEY
        nodes[0].send(1, "AFTER", "z")

    nodes[3].on("REWIRE", rewire)
    nodes[0].send(1, "MSG", "the pair is used before the topology changes")
    nodes[0].send(3, "REWIRE", None)
    net.run()
    assert [m.channel for m in nodes[1].received] == [
        ChannelClass.INTRA,
        ChannelClass.KEY,
    ]


def test_run_until_a_time_in_the_past_raises(net_and_nodes):
    net, nodes = net_and_nodes
    net.call_after(8.0, lambda: None)
    net.run()
    with pytest.raises(SimulationError, match="past"):
        net.run(until=1.0)
    assert net.now == 8.0
    assert net.run(until=8.0) == 8.0  # the present is not the past


# -- a fan-out is one run: one heap entry, one envelope ----------------------
_RUN_NODES = 34


def _run_fabric(factory=Network, classify=None, **params):
    """A network of taps (they log every delivery and keep the envelope)."""
    net = factory(NetworkParams(**params), np.random.default_rng(5))
    pki = PKI()
    log, kept = [], []

    def hear(kind, message):
        log.append((message.recipient, kind, message.tag, message.payload, net.now))
        kept.append(message)

    for i in range(_RUN_NODES):
        net.add_node(Tap(i, pki.generate(("run", i)), hear))
    net.channel_classifier = classify or (lambda s, d: ChannelClass.INTRA)
    return net, log, kept


def test_multicast_allocates_per_fan_out_not_per_recipient():
    import gc

    net, _log, _kept = _run_fabric()
    everyone = list(range(_RUN_NODES))
    for _ in range(2):  # rows and jitter block filled, two envelopes pooled
        net.multicast(0, everyone, "WARM", b"w")
    net.run()
    grew = []
    gc.collect()
    gc.disable()
    try:
        for fan in (8, 32):
            before = len(gc.get_objects())
            net.multicast(0, everyone[: fan + 1], "FAN", b"x", size=1)
            grew.append(len(gc.get_objects()) - before)
    finally:
        gc.enable()
    assert net.pending == 8 + 32
    assert grew[0] == grew[1]


def test_a_tallied_run_owns_only_its_times():
    """A tallied fan-out is kept until its session lets it go: what it owns
    is its run, its envelope and its times; the recipients and channels
    are its route's, shared by every fan-out along it."""
    import gc

    net, _log, _kept = _run_fabric()
    added = []
    tally = SimpleNamespace(add=added.append, due=lambda run, k: False)
    fans = [list(range(fan + 1)) for fan in (8, 32)]
    for recipients in fans:  # routes resolved, jitter block filled
        net.multicast(0, recipients, "WARM", b"w", size=1, tally=tally)
    grew = []
    gc.collect()
    gc.disable()
    try:
        for recipients in fans:
            before = len(gc.get_objects())
            net.multicast(0, recipients, "FAN", b"x", size=1, tally=tally)
            grew.append(len(gc.get_objects()) - before)
    finally:
        gc.enable()
    assert [len(run.times) for run in added] == [8, 32, 8, 32]
    assert grew == [3, 3]
    for first, again in zip(added[:2], added[2:]):
        assert again.recipients is first.recipients
        assert again.channels is first.channels


def test_equal_delivery_times_come_out_in_seq_order():
    # No jitter: every INTRA delivery of the instant lands on now + delta and
    # every KEY one on now + gamma, so only seq orders them.
    def classify(s, d):
        if s == d:
            return ChannelClass.LOCAL
        return ChannelClass.KEY if (s + d) % 2 else ChannelClass.INTRA

    stories = []
    for factory in (Network, NaiveNetwork):
        net, log, _kept = _run_fabric(factory, classify=classify, jitter=0.0)
        delta = net.params.delta
        timer = lambda name: log.append((name, "timer", None, None, net.now))
        net.multicast(0, [1, 2, 3, 4], "A", "a")         # seq 0-3
        net.call_at(delta, lambda: timer("at-delta"))   # seq 4
        net.multicast(1, [0, 2, 3, 4], "B", "b")         # seq 5-8
        net.send(2, 2, "SELF", "zero-delay")             # seq 9, at now
        net.call_at(net.now, lambda: timer("at-now"))    # seq 10, at now
        assert [row[1] for row in net.in_flight()] == [9, 1, 3, 7, 0, 2, 5, 6, 8]
        net.run()
        stories.append(log)
    assert stories[0] == stories[1]
    assert [(nid, payload) for nid, _kind, _tag, payload, _now in stories[0]] == [
        (2, "zero-delay"), ("at-now", None),
        (2, "a"), (4, "a"), ("at-delta", None), (3, "b"),
        (1, "a"), (3, "a"), (0, "b"), (2, "b"), (4, "b"),
    ]


def test_what_happens_to_a_run_is_decided_at_send_time_and_at_each_delivery():
    """Right after a run's first delivery, whose handler fans out of its own:
    a recipient goes offline, another leaves, and a partition cuts nothing
    already sent."""
    fabric = play([("script", [(EVERYONE, None, None)]),
                   ("multicast", 0, EVERYONE, "PING", None, False)])
    first, _seq, _sender, relayer, *_ = fabric.records[-1]["in_flight"][0]
    offline, gone = [n for n in EVERYONE[1:] if n != relayer][:2]
    for step in (("online", offline, False), ("leave", gone, False),
                 ("partition", [[0], EVERYONE[1:]])):
        fabric.step(("at", first, step))
    drained = fabric.step(("run", None))
    heard = {tag: sorted(entry[1] for entry in fabric.log if entry[3] == tag)
             for tag in ("PING", "MSG")}
    assert heard["PING"] == sorted(set(EVERYONE[1:]) - {offline, gone})
    assert heard["MSG"] == sorted(set(EVERYONE) - {relayer, offline, gone})
    # Offline recipients count as delivered, departed ones do not.
    assert drained["counts"][:2] == (7 + 7 - 2, 0)


@pytest.mark.parametrize("budget", [None, 5], ids=["until", "event-budget"])
def test_a_run_interrupted_in_the_middle_is_finished_by_the_next_run(budget):
    fabric = play([("multicast", 0, EVERYONE, "FAN", None, False),
                   ("send", 0, 1, "ONE", None)], max_events=budget or 200_000)
    times = [row[0] for row in fabric.records[-1]["in_flight"]]
    cut = fabric.step(("run", None if budget else times[4]))
    done = budget + 1 if budget else 5  # the budget is checked after the event
    assert (cut["pending"], cut["counts"][0], len(cut["log"])) == (8 - done, done, done)
    assert [row[0] for row in cut["in_flight"]] == times[done:]
    drained = fabric.step(("run", None))
    assert (drained["result"], drained["pending"], drained["counts"][0]) == (times[-1], 0, 8)


def test_pooled_run_envelope_is_shared_and_poisoned_after_its_last_delivery():
    net, log, kept = _run_fabric()
    seen = []

    def look(msg):
        # Every delivery before this one was handed the same envelope, which
        # still reads as this delivery's.
        seen.append((
            (msg.deliver_time, msg.sender, msg.recipient, msg.tag, msg.size,
             msg.channel, msg.send_time),
            msg.payload,
            {id(m) for m in kept},
        ))
        kept.append(msg)

    for node in net.nodes.values():
        node.on("FAN", look)
    net.multicast(0, range(_RUN_NODES), "FAN", "fan")
    flights = list(net.in_flight())
    net.run()
    assert [fields for fields, *_ in seen] == [
        (when, *rest) for when, _seq, *rest in flights
    ]
    assert all(payload == "fan" for _, payload, _ in seen)
    assert all(ids <= {id(kept[0])} for *_, ids in seen)
    assert (kept[0].tag, kept[0].payload) == ("<pooled>", None)
    assert net._pool == [kept[0]]


def test_the_envelope_names_the_node_each_delivery_is_for():
    """The contract one-handler-per-session leans on: whichever node's
    mailbox a delivery is dispatched from, ``message.recipient`` is that
    node — for every delivery of interleaved multicasts, and still after the
    handler has sent messages of its own."""
    net, _log, _kept = _run_fabric()
    everyone = list(range(_RUN_NODES))
    seen = []

    def mailbox_of(nid):
        def handler(msg):
            before = msg.recipient
            net.send(nid, 0 if nid else 1, "REPLY", b"r")
            net.multicast(nid, everyone[:4], "REPLY", b"rr")
            seen.append((nid, before, msg.recipient, msg.sender))

        return handler

    for nid in everyone:
        net.nodes[nid].on("FAN", mailbox_of(nid))
    net.multicast(0, everyone, "FAN", b"a")
    net.multicast(1, everyone, "FAN", b"b")  # two runs interleaved in time
    net.send(2, 3, "FAN", b"c")
    net.run()
    assert len(seen) == 2 * (_RUN_NODES - 1) + 1
    assert all(nid == before == after for nid, before, after, _ in seen)
    assert {sender for *_, sender in seen} == {0, 1, 2}


def test_a_tallied_fan_out_that_raises_keeps_the_recipients_before():
    """A recipient with no node raises out of a tallied multicast as out
    of the loop of sends, and the entries before it are tallied."""
    story = []
    for factory in (Network, NaiveNetwork):
        pki = PKI()
        net = factory(NetworkParams(), np.random.default_rng(3))
        for i in range(4):
            net.add_node(ProtocolNode(i, pki.generate(("raise", i))))
        added = []
        tally = SimpleNamespace(add=added.append, due=lambda run, k: False)
        with pytest.raises(SimulationError):
            net.multicast(0, [1, 2, 99, 3], "M", b"x", size=1, tally=tally)
        before = (net.pending, [row[3] for row in net.in_flight()])
        net.run()
        story.append((before, net.now, net.delivered_messages, net.pending))
        if factory is Network:
            assert [run.recipients for run in added] == [(1, 2)]
    assert story[0] == story[1]
    pending, listed = story[0][0]
    assert pending == 2 and sorted(listed) == [1, 2]
