"""Network simulator: delivery, latency classes, timers, strict channels."""

import copy
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import NaiveNetwork, per_chunk_unicast

from repro.backends.base import RivalBackend
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


# -- multicast == the loop of sends it replaces ------------------------------
_FANOUT_NODES = 8
_FANOUT_CLASSES = (
    ChannelClass.INTRA,
    ChannelClass.KEY,
    ChannelClass.PARTIAL,
    ChannelClass.LOCAL,
)


def _fanout_fabric(factory, conditions):
    """One network built from ``conditions`` (a plain dict, so two calls
    give two identically-seeded, identically-configured fabrics)."""
    import numpy as np

    net = factory(NetworkParams(), np.random.default_rng(conditions.get("seed", 7)))
    pki = PKI()
    for i in range(_FANOUT_NODES):
        net.add_node(ProtocolNode(i, pki.generate(("fanout", i))))
    # Advance the clock and the jitter cursor (so a fan-out can straddle a
    # block refill).
    net.call_at(conditions.get("now", 0.0), lambda: None)
    net.run()
    net.channel_classifier = lambda s, d: ChannelClass.INTRA
    for _ in range(conditions.get("warmup_sends", 0)):
        net.send(1, 2, "WARM", b"w", size=1)
    classes = conditions.get("classes", (ChannelClass.INTRA,))
    no_channel_to = conditions.get("no_channel_to")
    net.channel_classifier = (
        lambda s, d: None if d == no_channel_to else classes[(s + d) % len(classes)]
    )
    if conditions.get("partition"):
        net.set_partitions(conditions["partition"])
    if conditions.get("drop_to") is not None:
        dropped = set(conditions["drop_to"])
        net.drop_filter = lambda msg: msg.recipient in dropped
    for factor, channels in conditions.get("degradations", ()):
        net.add_link_degradation(factor, channels)
    net.nodes[0].online = not conditions.get("offline_sender", False)
    return net


def _fanout_state(net):
    metrics = net.metrics
    return {
        "heap": list(net.in_flight()),
        "dropped": (net.dropped_messages, net.partition_dropped),
        "rows": metrics.summary_rows(),
        "totals": (metrics.total_messages(), metrics.total_bytes()),
    }


def _rng_state(net):
    block = net._jitter_block
    return (
        net.rng.bit_generator.state,
        net._jitter_idx,
        None if block is None else list(block),
    )


def _assert_multicast_is_send_loop(conditions, recipients, size):
    payload = ("ECHO", b"\x01" * 32, 7, [1, 2, 3])
    fan = _fanout_fabric(Network, conditions)
    loop = _fanout_fabric(Network, conditions)
    naive = _fanout_fabric(NaiveNetwork, conditions)
    errors = []
    for net, use_multicast in ((fan, True), (loop, False), (naive, False)):
        sender = net.nodes[0]
        try:
            if use_multicast:
                sender.multicast(recipients, "FAN", payload, size=size)
            else:
                for recipient in recipients:
                    if recipient != sender.node_id:
                        sender.send(recipient, "FAN", payload, size=size)
            errors.append(None)
        except SimulationError as exc:
            errors.append(str(exc))
    assert errors[0] == errors[1] == errors[2]
    fan_state = _fanout_state(fan)
    assert fan_state == _fanout_state(loop)
    assert _rng_state(fan) == _rng_state(loop)
    # The frozen pre-multicast send path draws jitter scalar by scalar, so
    # its generator state differs by the unserved rest of the block; every
    # queued message, counter and metric row must still agree.
    assert fan_state == _fanout_state(naive)
    order = []
    for net in (fan, loop, naive):
        seen = []
        for tag in ("FAN", "WARM"):
            for node in net.nodes.values():
                node.on(tag, lambda msg, seen=seen: seen.append((
                    msg.deliver_time, msg.sender, msg.recipient, msg.tag,
                    msg.size, msg.channel, msg.send_time,
                    msg.payload is payload or msg.tag == "WARM", net.now,
                )))
        net.run()
        order.append((seen, net.now, net.delivered_messages))
    assert order[0] == order[1] == order[2]
    # What was delivered is what was in flight, in that order.
    assert [row[:7] for row in order[0][0]] == [
        (when, *rest) for when, _seq, *rest in fan_state["heap"]
    ]
    assert all(right_payload for *_, right_payload, _now in order[0][0])
    return fan_state


_EVERYONE = list(range(_FANOUT_NODES))


@pytest.mark.parametrize(
    "conditions, recipients, size",
    [
        pytest.param({}, _EVERYONE, 96, id="plain"),
        pytest.param({}, _EVERYONE, None, id="size-none"),
        pytest.param({}, [], None, id="empty-recipients"),
        pytest.param({}, [0], 8, id="only-the-sender"),
        pytest.param({}, [3, 0, 3, 5, 0], 8, id="sender-and-duplicates-in-recipients"),
        pytest.param(
            {"partition": [[0, 1, 2], [3, 4]]}, _EVERYONE, 96, id="partition"
        ),
        pytest.param({"drop_to": [2, 5]}, _EVERYONE, None, id="drop-filter"),
        pytest.param(
            {"drop_to": _EVERYONE}, _EVERYONE, 96, id="drop-filter-drops-all"
        ),
        pytest.param(
            {
                "now": 2.0,
                "classes": _FANOUT_CLASSES,
                "degradations": [
                    (3.0, None),
                    (1.5, [ChannelClass.KEY]),
                    (1.1, [ChannelClass.KEY, ChannelClass.INTRA]),
                ],
            },
            _EVERYONE,
            96,
            id="stacked-degradations",
        ),
        pytest.param(
            {"classes": (ChannelClass.LOCAL,)}, _EVERYONE, 96, id="local-no-draws"
        ),
        pytest.param({"offline_sender": True}, _EVERYONE, 96, id="offline-sender"),
        pytest.param(
            {"warmup_sends": Network._JITTER_BLOCK - 3},
            _EVERYONE,
            96,
            id="straddles-jitter-block-refill",
        ),
        pytest.param({}, [1, 2, 99, 3], 96, id="unknown-recipient-mid-list"),
        pytest.param(
            {"no_channel_to": 4}, _EVERYONE, None, id="no-channel-mid-list-strict"
        ),
    ],
)
def test_multicast_equals_loop_of_sends(conditions, recipients, size):
    _assert_multicast_is_send_loop(conditions, recipients, size)


def test_multicast_equivalence_cases_do_what_they_say():
    """Guard the table above against vacuous cases."""
    state = _assert_multicast_is_send_loop(
        {"partition": [[0, 1, 2], [3, 4]]}, _EVERYONE, 96
    )
    assert state["dropped"] == (5, 5) and len(state["heap"]) == 2
    state = _assert_multicast_is_send_loop({}, [1, 2, 99, 3], 96)
    assert sorted(row[3] for row in state["heap"]) == [1, 2]
    assert state["rows"] == [("setup", "common", 2, 192, 0)]
    state = _assert_multicast_is_send_loop({"drop_to": _EVERYONE}, _EVERYONE, 96)
    assert state["rows"] == [] and state["totals"] == (0, 0)
    refill = Network._JITTER_BLOCK - 3
    fabric = _fanout_fabric(Network, {"warmup_sends": refill})
    assert fabric._jitter_idx == refill
    fabric.multicast(0, _EVERYONE, "FAN", b"x")
    assert fabric._jitter_idx == _FANOUT_NODES - 1 - 3


def _fanout_conditions():
    """Drawn fabric conditions for :func:`_fanout_fabric`."""
    from hypothesis import strategies as st

    node_ids = st.integers(0, _FANOUT_NODES - 1)
    return st.fixed_dictionaries(
        {"seed": st.integers(0, 3)},
        optional={
            "now": st.floats(0.0, 6.0),
            "classes": st.lists(
                st.sampled_from(_FANOUT_CLASSES), min_size=1, max_size=4
            ).map(tuple),
            "warmup_sends": st.sampled_from([1, 1019, 1023, 1024, 1030]),
            "partition": st.lists(node_ids, unique=True, max_size=6).map(
                lambda ids: [ids[: len(ids) // 2], ids[len(ids) // 2 :]]
            ),
            "drop_to": st.lists(node_ids, max_size=4),
            "degradations": st.lists(
                st.tuples(
                    st.floats(1.0, 4.0),
                    st.none() | st.lists(
                        st.sampled_from(_FANOUT_CLASSES), min_size=1, max_size=2
                    ),
                ),
                max_size=3,
            ),
            "offline_sender": st.booleans(),
            "no_channel_to": node_ids,
        },
    )


def test_multicast_equals_loop_of_sends_property():
    from hypothesis import given
    from hypothesis import strategies as st

    @given(
        _fanout_conditions(),
        st.lists(st.integers(0, _FANOUT_NODES + 1), max_size=12),
        st.none() | st.integers(1, 500),
    )
    def check(conds, recipients, size):
        _assert_multicast_is_send_loop(conds, recipients, size)

    check()


def test_chunk_fan_out_is_the_per_chunk_unicast_loop():
    """IDA-style dissemination as one recipient-major fan-out leaves what
    one indexed unicast per recipient per chunk left: the same messages in
    flight (``seq``, time, recipient, size, channel), metric rows, drops,
    jitter state, raised error and deliveries."""
    from hypothesis import given
    from hypothesis import strategies as st

    @given(
        _fanout_conditions(),
        st.lists(st.integers(0, _FANOUT_NODES + 1), max_size=8),
        st.integers(0, 4),
        st.integers(1, 900),
    )
    def check(conds, recipients, chunks, total_bytes):
        fan = _fanout_fabric(Network, conds)
        loop = _fanout_fabric(Network, conds)
        errors = []
        for net in (fan, loop):
            sender = net.nodes[0]
            # The method reads only the backend's chunk count.
            try:
                if net is fan:
                    RivalBackend._chunked_multicast(
                        SimpleNamespace(dissemination_chunks=chunks),
                        sender, recipients, "CHUNK", "txlist", total_bytes,
                    )
                else:
                    per_chunk_unicast(
                        sender, recipients, "CHUNK", "txlist", total_bytes, chunks
                    )
                errors.append(None)
            except SimulationError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        assert _fanout_state(fan) == _fanout_state(loop)
        assert _rng_state(fan) == _rng_state(loop)
        delivered = []
        for net in (fan, loop):
            seen = []
            for node in net.nodes.values():
                node.on("CHUNK", lambda msg, seen=seen: seen.append((
                    msg.deliver_time, msg.sender, msg.recipient, msg.size,
                    msg.channel, net.now,
                )))
            net.run()
            delivered.append((seen, net.now, net.delivered_messages))
        assert delivered[0] == delivered[1]

    check()


# -- routes: one resolution per (sender, recipients), fabric state per send --
# A fan-out resolves its recipients into a route once while the classifier
# is installed; partition, drop_filter and degradation are read per send.
# A story of sends, multicasts and fabric switches is compared with
# ``NaiveNetwork``, which asks the classifier and the fabric every time.
_ROUTE_LISTS = (
    (1, 2, 3, 4, 5, 6, 7),
    (0, 5, 5, 2, 0),  # the sender and duplicates among the recipients
    (6, 7),  # refused under classifier 2
    (3, 99, 4),  # an unknown recipient mid-list
    (),
)


def _route_classifier(variant):
    classes = (_FANOUT_CLASSES, _FANOUT_CLASSES[::-1], (ChannelClass.KEY,))[variant]

    def classify(s, d):
        if variant == 2 and d == 7:
            return None
        return classes[(s + d) % len(classes)]

    return classify


def _route_steps():
    node_ids = st.integers(0, _FANOUT_NODES - 1)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("fan"), st.integers(0, 2),
                st.integers(0, len(_ROUTE_LISTS) - 1), st.booleans(),
            ),
            st.tuples(st.just("send"), node_ids, node_ids),
            st.tuples(
                st.just("partition"),
                st.none() | st.lists(node_ids, unique=True, min_size=1, max_size=6),
            ),
            st.tuples(st.just("filter"), st.none() | st.frozensets(node_ids)),
            st.tuples(
                st.just("degrade"), st.floats(1.0, 3.0),
                st.none() | st.lists(st.sampled_from(_FANOUT_CLASSES), min_size=1),
            ),
            st.tuples(st.just("classify"), st.integers(0, 2)),
            st.tuples(st.just("run"), st.floats(0.0, 3.0)),
            st.tuples(st.just("reset")),
        ),
        max_size=24,
    )


def _route_story(factory, steps):
    """What a caller sees of ``steps`` on a fresh ``factory`` fabric: after
    each step the raised error and :func:`_fanout_state`, then the
    deliveries of a final drain."""
    net = _fanout_fabric(factory, {"seed": 2})
    net.channel_classifier = _route_classifier(0)
    seen = []
    for node in net.nodes.values():
        for tag in ("FAN", "ONE"):
            node.on(tag, lambda msg: seen.append((
                msg.deliver_time, msg.sender, msg.recipient, msg.tag,
                msg.channel, msg.send_time, net.now,
            )))
    story = []
    for step in steps:
        kind, *args = step
        error = None
        try:
            if kind == "fan":
                sender, which, as_generator = args
                listed = _ROUTE_LISTS[which]
                net.multicast(
                    sender, (r for r in listed) if as_generator else listed,
                    "FAN", b"fan",
                )
            elif kind == "send":
                net.send(*args, "ONE", b"one")
            elif kind == "partition":
                (ids,) = args
                net.set_partitions(
                    [] if ids is None else [ids[: len(ids) // 2], ids[len(ids) // 2 :]]
                )
            elif kind == "filter":
                (dropped,) = args
                net.drop_filter = (
                    None if dropped is None else lambda msg: msg.recipient in dropped
                )
            elif kind == "degrade":
                net.add_link_degradation(*args)
            elif kind == "classify":
                net.channel_classifier = _route_classifier(*args)
            elif kind == "run":
                net.run(until=net.now + args[0])
            else:
                net.reset()
                net.channel_classifier = _route_classifier(0)
        except SimulationError as exc:
            error = str(exc)
        story.append((step, error, _fanout_state(net)))
    net.run()
    return story, seen, net.now, net.delivered_messages


@settings(deadline=None)
@given(_route_steps())
def test_a_route_is_reused_only_while_it_is_right(steps):
    story = _route_story(Network, steps)
    assert story == _route_story(NaiveNetwork, steps)


def test_route_story_cases_do_what_they_say():
    """Guard the story above against vacuous steps: a route is kept and
    reused across switches of the fabric, and a new classifier drops it."""
    fan = ("fan", 0, 0, False)
    steps = [
        fan, ("partition", [1, 2, 3, 0]), fan, ("filter", frozenset({4})), fan,
        ("partition", None), ("degrade", 2.0, None), ("fan", 0, 0, True),
        ("filter", None), ("classify", 1), fan,
        ("classify", 2), ("fan", 1, 2, False), ("fan", 0, 1, True),
        ("send", 3, 3),
    ]
    story = _route_story(Network, steps)
    assert story == _route_story(NaiveNetwork, steps)
    errors = [error for _step, error, _state in story[0]]
    assert errors[12] == (
        "no channel from 1 to 7: the topology does not provide this link (see §III-B)"
    )
    assert errors.count(None) == len(steps) - 1
    flights = [state["heap"] for _step, _error, state in story[0]]
    # 7; only 3 shares 0's side of the cut (with or without the filter);
    # healed, 4 filtered: 6; all 7; the one before the refusal; 0 -> (5, 5,
    # 2); a self-send
    assert [len(heap) for heap in flights] == [
        7, 7, 8, 8, 9, 9, 9, 15, 15, 15, 22, 22, 23, 26, 27,
    ]
    # The fan-out after the classifier changed uses the new channels.
    new = [row for row in flights[10] if row not in flights[9]]
    assert [(row[3], row[6]) for row in sorted(new, key=lambda row: row[3])] == [
        (d, _route_classifier(1)(0, d)) for d in _ROUTE_LISTS[0]
    ]
    assert [row[2:5] + row[6:7] for row in flights[14] if row[4] == "ONE"] == [
        (3, 3, "ONE", ChannelClass.KEY)
    ]
    net = _fanout_fabric(Network, {"seed": 2})
    net.multicast(0, _ROUTE_LISTS[0], "FAN", b"x")
    net.multicast(0, iter(_ROUTE_LISTS[0]), "FAN", b"x")
    assert len(net._routes) == 1
    net.channel_classifier = _route_classifier(1)
    assert not net._routes and not net._channel_rows


# -- the dispatch fast path: Network.run does what receive and retiring do ---
# The reference is ``reference_impls.NaiveNetwork``: one envelope and one
# heap entry per message, every delivery through the oracle's own
# ``_receive``, the envelope retired after it.


class _Tap(ProtocolNode):
    """Logs what its handlers and its ``on_default`` were handed, and keeps
    the envelopes (against the pooling contract, to look at them after)."""

    def __init__(self, nid, kp, log, kept):
        super().__init__(nid, kp)
        self.log = log
        self.kept = kept

    def hear(self, kind, message):
        self.log.append(
            (self.node_id, kind, message.tag, message.payload, self.network.now)
        )
        self.kept.append(message)

    def on_default(self, message):
        self.hear("default", message)


def _dispatch_story(factory, max_events=200_000, until=None):
    """One run through every branch of the delivery path; returns all a
    caller could observe of it."""
    pki = PKI()
    net = factory(NetworkParams(max_events=max_events), np.random.default_rng(11))
    log, kept = [], []
    nodes = [_Tap(i, pki.generate(("tap", i)), log, kept) for i in range(5)]
    for node in nodes:
        net.add_node(node)
        node.on("MSG", lambda msg, node=node: node.hear("handler", msg))
    net.channel_classifier = lambda s, d: ChannelClass.INTRA
    nodes[1].online = False
    nodes[0].send(1, "MSG", "to-offline")
    nodes[0].send(2, "NOPE", "unknown-tag")
    nodes[0].send(3, "LATE", "handler-registered-in-flight")
    nodes[0].send(2, "MSG", "plain")
    # Fires before any delivery: the tag is looked up when the message
    # arrives, not when it was sent.
    net.call_at(0.0, lambda: nodes[3].on(
        "LATE", lambda msg: nodes[3].hear("late-handler", msg)
    ))
    # A reply from inside a handler reuses the envelope just retired.
    nodes[4].on("PING", lambda msg: nodes[4].send(0, "MSG", "pong"))
    net.call_at(3.0, lambda: nodes[0].send(4, "PING", "ping"))
    # Nobody is there: a message to an id that left the registry.
    net.call_at(4.0, lambda: (nodes[0].send(2, "MSG", "orphan"),
                              net.nodes.pop(2)))
    error = None
    try:
        end = net.run(until)
    except SimulationError as exc:
        end, error = None, type(exc).__name__
    return {
        "log": log,
        "end": end,
        "now": net.now,
        "error": error,
        "delivered": net.delivered_messages,
        "dropped": net.dropped_messages,
        "pending": net.pending,
        "pool": len(net._pool),
        "envelopes": [(m.tag, m.payload) for m in kept],
        "sent": net.metrics.total_messages(),
    }


def test_run_dispatches_like_receive_and_release():
    story = _dispatch_story(Network)
    assert story == _dispatch_story(NaiveNetwork)
    heard = [(nid, kind, payload) for nid, kind, _tag, payload, _now in story["log"]]
    assert sorted(heard) == [
        (0, "handler", "pong"),
        (2, "default", "unknown-tag"),
        (2, "handler", "plain"),
        (3, "late-handler", "handler-registered-in-flight"),
    ]
    # The offline recipient ran nothing and is still a delivery; the
    # orphan is neither.
    assert story["delivered"] == 6 and story["sent"] == 7
    assert set(story["envelopes"]) == {("<pooled>", None)}
    assert story["pool"] >= 1


@pytest.mark.parametrize(
    "limits, delivered, error",
    [
        pytest.param({"until": 2.0}, 4, None, id="until"),
        pytest.param({"until": 3.0}, 4, None, id="until-on-a-timer"),
        pytest.param({"max_events": 3}, 3, "SimulationError", id="event-budget"),
        pytest.param({}, 6, None, id="drained"),
    ],
)
def test_delivered_messages_right_however_run_exits(limits, delivered, error):
    story = _dispatch_story(Network, **limits)
    assert story == _dispatch_story(NaiveNetwork, **limits)
    assert (story["delivered"], story["error"]) == (delivered, error)


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
    for i in range(_RUN_NODES):
        net.add_node(_Tap(i, pki.generate(("run", i)), log, kept))
    net.channel_classifier = classify or (lambda s, d: ChannelClass.INTRA)
    return net, log, kept


def _heard(log):
    return [(nid, payload) for nid, _kind, _tag, payload, _now in log]


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
    assert _heard(stories[0]) == [
        (2, "zero-delay"), ("at-now", None),
        (2, "a"), (4, "a"), ("at-delta", None), (3, "b"),
        (1, "a"), (3, "a"), (0, "b"), (2, "b"), (4, "b"),
    ]


def test_what_happens_to_a_run_is_decided_at_send_time_and_at_each_delivery():
    stories = []
    for factory in (Network, NaiveNetwork):
        net, log, _kept = _run_fabric(factory)
        nodes = net.nodes
        everyone = list(range(8))
        first = []

        def relay(msg):
            nodes[msg.recipient].hear("relay", msg)
            if not first:
                first.append(msg.recipient)
                # From inside a delivery of the run: a fan-out of its own, a
                # recipient going offline, another leaving, and a partition —
                # which cuts nothing already sent.
                nodes[msg.recipient].multicast(everyone, "ECHO", "echo")
                later = [n for n in everyone[1:] if n != msg.recipient]
                nodes[later[0]].online = False
                del nodes[later[1]]
                net.set_partitions([[0], everyone[1:]])
                first.extend(later[:2])

        for nid in everyone:
            nodes[nid].on("FAN", relay)
        net.multicast(0, everyone, "FAN", "fan")
        net.run()
        stories.append((log, first, net.delivered_messages, net.dropped_messages))
    assert stories[0] == stories[1]
    log, (relayer, offline, gone), delivered, dropped = stories[0]
    fan = [nid for nid, payload in _heard(log) if payload == "fan"]
    echo = [nid for nid, payload in _heard(log) if payload == "echo"]
    assert sorted(fan) == sorted(set(range(1, 8)) - {offline, gone})
    assert sorted(echo) == sorted(set(range(8)) - {relayer, offline, gone})
    # Offline recipients count as delivered, departed ones do not; the
    # partition dropped nothing because nothing was sent after it.
    assert (delivered, dropped) == (7 + 7 - 2, 0)


@pytest.mark.parametrize("budget", [None, 5], ids=["until", "event-budget"])
def test_a_run_interrupted_in_the_middle_is_finished_by_the_next_run(budget):
    logs = []
    for factory in (Network, NaiveNetwork):
        params = {} if budget is None else {"max_events": budget}
        net, log, _kept = _run_fabric(factory, **params)
        net.multicast(0, range(10), "FAN", "fan")
        net.send(0, 11, "ONE", "single")
        times = [row[0] for row in net.in_flight()]
        if budget is None:
            assert net.run(until=times[4]) == times[4]
            done = 5
        else:
            with pytest.raises(SimulationError, match="event budget"):
                net.run()
            done = budget + 1  # the budget is checked after the event
        assert (net.pending, net.delivered_messages, len(log)) == (10 - done, done, done)
        assert [row[0] for row in net.in_flight()] == times[done:]
        net.params = NetworkParams()
        assert net.run() == times[-1]
        assert (net.pending, net.delivered_messages, len(log)) == (0, 10, 10)
        logs.append(log)
    assert logs[0] == logs[1]


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


# -- tallied fan-outs: a delivery that calls no handler costs no event ------
# ``NaiveNetwork`` ignores ``tally`` and calls every handler; a handler here
# does nothing for a tallied delivery its tally would not arm as due, as the
# contract asks.  ``Network`` must call the same handlers in the same order
# (an armed entry at its own ``(time, seq)``), none for a silent entry, and
# agree on every count at every observation point: inside timers, after
# each cut at ``until``, drained (``delivered_messages`` at the last two).
_TALLY_NODES = 6


@st.composite
def _fan_out_specs(draw):
    sender = draw(st.integers(0, _TALLY_NODES - 1))
    recipients = draw(st.lists(
        st.integers(0, _TALLY_NODES - 1), min_size=1, max_size=8
    ))
    return sender, recipients, draw(st.booleans())


@st.composite
def _tally_scripts(draw):
    delta = NetworkParams().delta
    on_the_grid = st.integers(0, 12).map(lambda k: k * delta / 4)
    instants = on_the_grid | st.floats(0.0, 3.0 * delta, allow_nan=False)
    return {
        "jitter": draw(st.sampled_from([0.0, 0.25])),
        # entry (fan-out number, recipient) is armed when this divides
        # 7 * number + recipient, and due when the next one divides it
        "arm": draw(st.integers(1, 4)),
        "due": draw(st.integers(1, 3)),
        "fans": draw(st.lists(_fan_out_specs(), min_size=1, max_size=4)),
        # One entry per handler call, in call order: a fan-out to send.
        "actions": draw(st.lists(st.none() | _fan_out_specs(), max_size=16)),
        "timers": draw(st.lists(instants, max_size=4)),
        "cuts": sorted(draw(st.lists(instants, max_size=4))),
    }


class _ScriptTally:
    """Arms the entries the script names when the fan-out is sent."""

    def __init__(self, net, script):
        self.net = net
        self.script = script

    def add(self, run):
        number = run.message.payload[1]
        for k, recipient in enumerate(run.recipients):
            if (7 * number + recipient) % self.script["arm"] == 0:
                self.net.arm(run, k)

    def due(self, run, k):
        return (7 * run.message.payload[1] + run.recipients[k]) % self.script["due"] == 0


def _tally_story(factory, script):
    pki = PKI()
    net = factory(NetworkParams(jitter=script["jitter"]), np.random.default_rng(3))
    for i in range(_TALLY_NODES):
        net.add_node(ProtocolNode(i, pki.generate(("tally", i))))
    net.channel_classifier = (
        lambda s, d: ChannelClass.KEY if (s + d) % 3 == 0 else ChannelClass.INTRA
    )
    tally = _ScriptTally(net, script)
    actions = iter(script["actions"])
    numbers = iter(range(10**6))
    calls, seen = [], []

    def observe(where):
        # ``delivered_messages`` is brought up to date as ``run`` returns.
        delivered = None if where == "timer" else net.delivered_messages
        seen.append((where, net.now, delivered, net.pending, list(net.in_flight())))

    def fan_out(spec):
        sender, recipients, tallied = spec
        net.multicast(
            sender, recipients, "M", (tallied, next(numbers)), size=1,
            tally=tally if tallied else None,
        )

    def handler(message):
        tallied, number = message.payload
        recipient = message.recipient
        if tallied and not (
            (7 * number + recipient) % script["arm"] == 0
            and (7 * number + recipient) % script["due"] == 0
        ):
            return  # a silent entry does nothing
        calls.append((recipient, message.sender, number, net.now, net.pending))
        spec = next(actions, None)
        if spec is not None:
            fan_out((recipient, *spec[1:]))

    for node in net.nodes.values():
        node.on("M", handler)
    for spec in script["fans"]:
        fan_out(spec)
    for when in script["timers"]:
        net.call_at(when, partial(observe, "timer"))
    for until in script["cuts"]:
        if until >= net.now:
            net.run(until)
            observe(("cut", until))
    net.run()
    observe("drained")
    return calls, seen


@settings(max_examples=150, deadline=None)
@given(_tally_scripts())
def test_tallied_entries_are_delivered_by_position_with_message_by_message_accounting(script):
    calls, seen = _tally_story(Network, script)
    assert (calls, seen) == _tally_story(NaiveNetwork, script)
    assert seen[-1][3] == 0


def test_a_tallied_fan_out_calls_only_the_handlers_it_arms():
    """The count the contract buys: of a tallied fan-out, only the armed
    entries that are due get a handler call, at their own key; the silent
    ones still count as delivered, and the clock drains to the last."""
    script = {
        # No jitter: 1, 2, 4 and 5 hear at delta in that order, 3 at gamma.
        "jitter": 0.0, "arm": 2, "due": 3,
        "fans": [(0, [1, 2, 3, 4, 5], True)],
        "actions": [], "timers": [], "cuts": [],
    }
    calls, seen = _tally_story(Network, script)
    # Fan-out 0 arms the even recipients, 2 and 4, and neither is due.
    assert calls == []
    delta, gamma = NetworkParams().delta, NetworkParams().gamma
    assert seen[-1][:4] == ("drained", gamma, 5, 0)
    script["due"] = 2
    calls, seen = _tally_story(Network, script)
    assert calls == [(2, 0, 0, delta, 3), (4, 0, 0, delta, 2)]
    assert seen[-1][:4] == ("drained", gamma, 5, 0)
    assert _tally_story(NaiveNetwork, script) == (calls, seen)


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
