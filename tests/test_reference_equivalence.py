"""The equivalence guarantees the hot-path optimizations rest on: every
optimized path against its frozen reference (``reference_impls``) or the
scalar loop it replaced, on the same seed, with equal results required."""

from __future__ import annotations

import numpy as np
import pytest

import reference_impls


# -- RNG stream guarantees the optimizations rely on -------------------------
def test_batched_random_matches_scalar_draws():
    """The jitter block in Network._next_jitter is stream-exact."""
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    batched = a.random(257)
    scalars = [b.random() for _ in range(257)]
    assert np.array_equal(batched, np.asarray(scalars))


def test_indexed_integers_match_generator_choice():
    """The workload defect draw is stream-exact vs Generator.choice."""
    options = ["double_spend", "overspend", "phantom_input"]
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    via_choice = [str(a.choice(options)) for _ in range(200)]
    via_index = [options[int(b.integers(0, 3))] for _ in range(200)]
    assert via_choice == via_index


# -- optimized vs frozen-baseline equivalence --------------------------------
def test_network_jitter_block_matches_naive_scalar_network():
    from repro.net.params import NetworkParams
    from repro.net.simulator import Network

    from repro.crypto.pki import PKI
    from repro.net.node import ProtocolNode

    fast = Network(NetworkParams(), np.random.default_rng(3), pool_envelopes=True)
    naive = reference_impls.NaiveNetwork(NetworkParams(), np.random.default_rng(3))
    pki = PKI()
    schedules = []
    for net in (fast, naive):
        net.set_channel_classifier(lambda src, dst: "intra")
        for i in range(2):
            net.add_node(ProtocolNode(i, pki.generate(i)))
        for _ in range(100):
            net.send(0, 1, "T", b"x")
        schedules.append([row[:2] for row in net.in_flight()])
    assert schedules[0] == schedules[1]


def test_payload_size_matches_naive_on_protocol_shapes():
    from repro.crypto.pki import PKI
    from repro.crypto.signatures import sign
    from repro.ledger.transaction import Transaction, TxInput, TxOutput
    from repro.net.message import payload_size

    pki = PKI()
    kp = pki.generate("x")
    tx = Transaction(
        inputs=(TxInput(b"\x07" * 32, 1),),
        outputs=(TxOutput("addr", 5),),
        nonce=3,
    )
    shapes = [
        None,
        True,
        7,
        3.5,
        b"\x01" * 16,
        "hello",
        (1, "a", b"bb"),
        [1, 2, 3],
        {1: "a", "b": (2, 3)},
        frozenset({1, 2}),
        sign(kp, ("S", 1)),
        tx,
        ("TX_LIST", (tx, tx), sign(kp, "s"), 42),
        np.int64(5),
        np.float64(2.5),
    ]
    for obj in shapes:
        assert payload_size(obj) == reference_impls.naive_payload_size(obj), obj


def test_workload_generator_matches_naive_generator():
    from repro.ledger.workload import WorkloadGenerator

    fast = WorkloadGenerator(m=3, users_per_shard=8, rng=np.random.default_rng(2))
    naive = reference_impls.NaiveWorkloadGenerator(
        m=3, users_per_shard=8, rng=np.random.default_rng(2)
    )
    assert fast.addresses_by_shard == naive.addresses_by_shard
    for _ in range(4):
        a = fast.generate_batch(32, cross_shard_ratio=0.4, invalid_ratio=0.5)
        b = naive.generate_batch(32, cross_shard_ratio=0.4, invalid_ratio=0.5)
        assert [t.tx.txid for t in a] == [t.tx.txid for t in b]
        assert [t.defect for t in a] == [t.defect for t in b]
        for generator in (fast, naive):  # pack half, roll back half
            generator.forget_txids([t.tx.txid for t in a[::2]])
            generator.rollback_txids([t.tx.txid for t in a[1::2]])


def test_batched_signatures_match_scalar_loops():
    from repro.crypto.pki import PKI
    from repro.crypto.signatures import sign, signers_of, verify

    pki = PKI()
    kps = [pki.generate(i) for i in range(6)]
    stmt = ("STMT", 1, (b"\x01" * 32,))
    sigs = [sign(kp, stmt) for kp in kps]
    assert all(verify(pki, s, stmt) for s in sigs)
    # Tampered and foreign signatures are rejected identically.
    bad = sigs[0].__class__(pk=sigs[0].pk, tag=b"\x00" * 32)
    mixed = [*sigs, bad]
    assert signers_of(pki, mixed, stmt) == {s.pk for s in sigs}
    members = {kps[0].pk, kps[1].pk}
    assert signers_of(pki, mixed, stmt, members=members) == members


def test_pki_mac_many_matches_mac():
    from repro.crypto.pki import PKI

    pki = PKI()
    kps = [pki.generate(i) for i in range(4)]
    pks = [kp.pk for kp in kps]
    message = b"payload"
    assert pki.mac_many(pks, message) == [pki.mac(pk, message) for pk in pks]
    with pytest.raises(KeyError):
        pki.mac_many(["missing"], message)


# -- envelope pooling --------------------------------------------------------
def test_envelope_pool_reuses_but_never_corrupts_delivery():
    from repro.crypto.pki import PKI
    from repro.net.node import ProtocolNode
    from repro.net.params import NetworkParams
    from repro.net.simulator import Network

    net = Network(NetworkParams(), np.random.default_rng(0), pool_envelopes=True)
    pki = PKI()
    seen: list[tuple[str, int]] = []
    nodes = [ProtocolNode(i, pki.generate(i)) for i in range(3)]
    for node in nodes:
        node.on("T", lambda m: seen.append((m.payload, m.sender)))
        net.add_node(node)
    net.set_channel_classifier(lambda s, d: "intra")
    for i in range(50):
        nodes[0].send(1, "T", f"p{i}")
    net.run()
    # Jitter permutes delivery order; every payload must arrive intact
    # exactly once (a pooled envelope clearing or reusing too early would
    # surface as None or duplicated payloads here).
    assert {p for p, _ in seen} == {f"p{i}" for i in range(50)}
    assert len(seen) == 50
    assert net._pool  # envelopes actually got recycled
    # Pool stays bounded and disabled networks never pool.
    plain = Network(NetworkParams(), np.random.default_rng(0))
    assert plain.pool_envelopes is False
