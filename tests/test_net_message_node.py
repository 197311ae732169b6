"""Message sizing, node dispatch, and sandbox construction."""

import numpy as np
import pytest

from repro.core.sandbox import build_sandbox
from repro.crypto.pki import PKI
from repro.crypto.signatures import sign
from repro.crypto.vrf import vrf_eval
from repro.net.message import Message, payload_size
from repro.net.node import ProtocolNode
from repro.net.params import ChannelClass, NetworkParams
from repro.net.simulator import Network


# -- payload sizing ---------------------------------------------------------------


def test_scalar_sizes():
    assert payload_size(7) == 8
    assert payload_size(3.14) == 8
    assert payload_size(True) == 1
    assert payload_size(None) == 1
    assert payload_size(b"abc") == 3
    assert payload_size("hello") == 5


def test_container_sizes_additive():
    assert payload_size((1, 2)) == 2 + 16
    assert payload_size([b"ab", "c"]) == 2 + 3
    assert payload_size({"k": 1}) == 2 + 1 + 8


def test_signature_and_vrf_conventional_sizes():
    pki = PKI()
    kp = pki.generate(1)
    assert payload_size(sign(kp, "m")) == 64
    assert payload_size(vrf_eval(kp, "a")) == 96


def test_dataclass_payloads_sized():
    from repro.ledger.transaction import Transaction

    tx = Transaction(
        inputs=((b"\x00" * 32, 0),),
        outputs=(("addr", 5),),
        nonce=1,
    )
    size = payload_size(tx)
    assert size > 32 + 8 + 4  # input id + amounts + address


def test_numpy_scalars_sized():
    assert payload_size(np.int64(3)) == 8


def test_unsizeable_raises():
    with pytest.raises(TypeError):
        payload_size(object())


def test_message_repr():
    msg = Message(
        sender=1, recipient=2, tag="PING", payload=None, size=10,
        channel="intra", send_time=0.0, deliver_time=1.0,
    )
    assert "1->2" in repr(msg) and "PING" in repr(msg)


# -- node dispatch -----------------------------------------------------------------


def test_unattached_node_cannot_send():
    node = ProtocolNode(0, PKI().generate(0))
    with pytest.raises(RuntimeError):
        node.send(1, "X", None)


def _deliver_one(node, tag, rng):
    """One ``tag`` message to ``node`` through the event loop."""
    net = Network(NetworkParams(), rng)
    net.add_node(node)
    net.channel_classifier = lambda s, d: ChannelClass.INTRA
    net.send(1, node.node_id, tag, None)
    net.run()
    return net


def test_handler_registration_overwrites(rng):
    node = ProtocolNode(0, PKI().generate(0))
    calls = []
    node.on("T", lambda m: calls.append("a"))
    node.on("T", lambda m: calls.append("b"))
    _deliver_one(node, "T", rng)
    assert calls == ["b"]


def test_offline_node_receive_noop(rng):
    node = ProtocolNode(0, PKI().generate(0))
    calls = []
    node.on("T", lambda m: calls.append(1))
    node.online = False
    assert _deliver_one(node, "T", rng).delivered_messages == 1
    assert calls == []


# -- sandboxes ----------------------------------------------------------------------


def test_sandbox_shape():
    ctx = build_sandbox(committee_size=10, lam=3, referee_size=5, seed=9)
    committee = ctx.committees[0]
    assert committee.size == 10
    assert committee.leader == 0
    assert committee.partial == (1, 2, 3)
    assert len(ctx.referee) == 5
    assert all(ctx.node(r).is_referee for r in ctx.referee)
    assert ctx.node(0).is_leader and not ctx.node(4).is_key_member


def test_sandbox_roles_in_metrics():
    ctx = build_sandbox(committee_size=8, lam=2)
    assert ctx.metrics.role_of(0) == "key"
    assert ctx.metrics.role_of(5) == "common"
    assert ctx.metrics.role_of(ctx.referee[0]) == "referee"


def test_sandbox_capacities_applied():
    ctx = build_sandbox(committee_size=6, lam=2, capacities=[1, 2, 3, 4, 5, 6])
    assert ctx.node(0).capacity == 1
    assert ctx.node(5).capacity == 6


def test_multi_sandbox_tickets_match_layout():
    ctx = build_sandbox(m=3, committee_size=6, lam=2, seed=4)
    for committee in ctx.committees:
        for mid in committee.members:
            ticket = ctx.node(mid).ticket
            assert ticket.committee_id == committee.index


def test_multi_sandbox_shard_states_distinct():
    ctx = build_sandbox(m=3, committee_size=6, lam=2)
    assert len({id(s) for s in ctx.shard_states}) == 3
    for k, committee in enumerate(ctx.committees):
        for mid in committee.members:
            assert ctx.node(mid).shard_state is ctx.shard_states[k]


def test_committee_spec_validation():
    from repro.core.structures import CommitteeSpec

    with pytest.raises(ValueError):
        CommitteeSpec(index=0, leader=9, partial=(1,), members=[0, 1, 2])
    with pytest.raises(ValueError):
        CommitteeSpec(index=0, leader=0, partial=(9,), members=[0, 1, 2])
    with pytest.raises(ValueError):
        CommitteeSpec(index=0, leader=0, partial=(0,), members=[0, 1, 2])


def test_replace_leader_semantics():
    from repro.core.structures import CommitteeSpec

    spec = CommitteeSpec(index=0, leader=0, partial=(1, 2), members=[0, 1, 2, 3])
    spec.replace_leader(2)
    assert spec.leader == 2
    assert spec.partial == (1,)
    with pytest.raises(ValueError):
        spec.replace_leader(3)  # not a partial member


def test_take_budget_semantics():
    ctx = build_sandbox(committee_size=6, lam=2)
    node = ctx.node(4)
    node.capacity = 5
    node.budget_left = None
    assert node.take_budget(3) == 3
    assert node.take_budget(3) == 2  # only 2 left
    assert node.take_budget(3) == 0
    node.reset_round_state()
    assert node.take_budget(1) == 1  # replenished next round
