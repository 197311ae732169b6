"""The equivalence guarantees the hot-path optimizations rest on: every
optimized path against its frozen reference (``reference_impls``) or the
scalar loop it replaced, on the same seed, with equal results required."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# -- the workload draw stream against numpy itself ---------------------------
_I64_MIN, _I64_END = -(2**63), 2**63


def _bounds_with_width(width: int):
    """``(low, high)`` with ``high - low == width`` inside int64."""
    lows = st.integers(_I64_MIN, _I64_END - width)
    return lows.map(lambda low: (low, low + width))


#: One strategy per bound class of numpy's ``random_bounded_uint64``, by
#: its range ``high - low - 1``.
_BOUNDS = st.one_of(
    st.integers(_I64_MIN, _I64_END - 1).map(lambda low: (low, low + 1)),  # 0
    st.integers(2, 2**32 - 1).flatmap(_bounds_with_width),  # 1 .. 2**32-2
    st.sampled_from([3 * 2**30, 2**31 + 1, 2**32 - 1]).flatmap(
        _bounds_with_width  # Lemire-32 widths that reject often
    ),
    _bounds_with_width(2**32),  # 2**32-1: a whole 32-bit word
    st.integers(2**32 + 1, 2**64 - 1).flatmap(_bounds_with_width),  # 64-bit
    st.just((_I64_MIN, _I64_END)),  # 2**64-1: a whole 64-bit word
    st.tuples(st.integers(-1000, -1), st.integers(1, 50)).map(
        lambda t: (t[0], t[0] + t[1])  # negative low
    ),
    st.tuples(st.integers(-50, 50), st.integers(-50, 0)).map(
        lambda t: (t[0], t[0] + t[1])  # empty: both raise
    ),
)

_DRAW_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), _BOUNDS),
        st.tuples(st.just("burst"), _BOUNDS, st.integers(1, 1500)),
        st.just(("random",)),
        st.tuples(st.just("poisson"), st.sampled_from([0.5, 4.0, 30.0, 200.0])),
        st.just(("get",)),
        st.just(("set",)),
    ),
    max_size=40,
)

_REJECTING = (0, 3 * 2**30)  # rejects about one 32-bit word in four


@settings(max_examples=120, deadline=None)
@example(seed=1, ops=[("burst", _REJECTING, 1200), ("get",)])
@example(seed=2, ops=[("integers", (0, 5)), ("get",), ("integers", (7, 8))])
@given(st.integers(0, 2**32 - 1), _DRAW_OPS)
def test_draw_stream_matches_numpy_generator(seed, ops):
    """Every value ``DrawStream`` serves, every state it reports and the
    final position equal a plain numpy ``Generator`` making the same
    calls, across bound classes, block boundaries and mid-block state
    reads and writes."""
    from repro.ledger.draws import DrawStream

    stream = DrawStream(np.random.default_rng(seed))
    oracle = np.random.default_rng(seed)

    def draw_both(low, high):
        try:
            want = int(oracle.integers(low, high))
        except ValueError:
            with pytest.raises(ValueError):
                stream.integers(low, high)
            return
        assert stream.integers(low, high) == want

    saved = [oracle.bit_generator.state]
    for op in ops:
        if op[0] == "integers":
            draw_both(*op[1])
        elif op[0] == "burst":
            for _ in range(op[2]):
                draw_both(*op[1])
        elif op[0] == "random":
            assert stream.random() == float(oracle.random())
        elif op[0] == "poisson":
            assert stream.poisson(op[1]) == int(oracle.poisson(op[1]))
        elif op[0] == "get":
            saved.append(stream.state)
            assert saved[-1] == oracle.bit_generator.state
        else:  # rewind both to the last state read
            stream.state = saved[-1]
            oracle.bit_generator.state = saved[-1]
    assert [stream.random() for _ in range(3)] == list(oracle.random(3))
    assert stream.state == oracle.bit_generator.state


@pytest.mark.parametrize("excl", [7, 3 * 2**61 + 1], ids=["lemire-32", "lemire-64"])
def test_draw_stream_rejects_exactly_below_the_threshold(excl):
    """Lemire's rejection at its edge, on crafted raw outputs: a product whose
    low word is one below ``(2**width - excl) % excl`` is drawn again and one
    on it is kept.  Random draws land on the edge about once in 2**32."""
    from repro.ledger.draws import DrawStream

    width = 32 if excl < 2**32 else 64
    threshold = (2**width - excl) % excl
    inverse = pow(excl, -1, 2**width)
    below, on = ((t * inverse) % 2**width for t in (threshold - 1, threshold))

    def fed(first, second):
        """A stream whose next words are ``first``, ``second``, then ``on``s."""
        stream = DrawStream(np.random.default_rng(0))
        if width == 32:  # two words a raw output, low half first
            words = [second << 32 | first, on << 32 | on]
        else:
            words = [first, second, on, on]
        stream._raw, stream._next, stream._has_half = words, 0, False
        return stream

    for first, second, used in ((below, on, 2), (on, below, 1)):
        stream = fed(first, second)
        assert stream.integers(0, excl) == (on * excl) >> width
        left = len(stream._raw) - stream._next  # raw outputs; two words each at 32
        assert (2 * left + stream._has_half if width == 32 else left) == 4 - used


@pytest.mark.parametrize(
    "rng, name",
    [
        (np.random.Generator(np.random.MT19937(1)), "MT19937"),
        (np.random.Generator(np.random.PCG64DXSM(1)), "PCG64DXSM"),
        (np.random.Generator(np.random.Philox(1)), "Philox"),
        (np.random.RandomState(1), "RandomState"),
    ],
)
def test_draw_stream_rejects_other_generators_by_name(rng, name):
    """Only PCG64's algorithms are transcribed: MT19937 builds its double
    from two 32-bit words, so a silent transcription would draw other
    numbers.  Anything else fails at construction, naming itself."""
    from repro.ledger.draws import DrawStream
    from repro.ledger.workload import WorkloadGenerator

    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        DrawStream(rng)
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        WorkloadGenerator(m=2, users_per_shard=4, rng=rng)


# -- optimized vs frozen-baseline equivalence --------------------------------
def test_network_jitter_block_matches_naive_scalar_network():
    from repro.net.params import NetworkParams
    from repro.net.simulator import Network

    from repro.crypto.pki import PKI
    from repro.net.node import ProtocolNode

    fast = Network(NetworkParams(), np.random.default_rng(3))
    naive = reference_impls.NaiveNetwork(NetworkParams(), np.random.default_rng(3))
    pki = PKI()
    schedules = []
    for net in (fast, naive):
        net.channel_classifier = lambda src, dst: "intra"
        for i in range(2):
            net.add_node(ProtocolNode(i, pki.generate(i)))
        for _ in range(100):
            net.send(0, 1, "T", b"x")
        schedules.append([row[:2] for row in net.in_flight()])
    assert schedules[0] == schedules[1]


def test_payload_size_matches_naive_on_protocol_shapes():
    from repro.crypto.pki import PKI
    from repro.crypto.signatures import sign
    from repro.ledger.transaction import Transaction
    from repro.net.message import payload_size

    pki = PKI()
    kp = pki.generate("x")
    tx = Transaction(
        inputs=((b"\x07" * 32, 1),),
        outputs=(("addr", 5),),
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

    net = Network(NetworkParams(), np.random.default_rng(0))
    pki = PKI()
    seen: list[tuple[str, int]] = []
    nodes = [ProtocolNode(i, pki.generate(i)) for i in range(3)]
    for node in nodes:
        node.on("T", lambda m: seen.append((m.payload, m.sender)))
        net.add_node(node)
    net.channel_classifier = lambda s, d: "intra"
    for i in range(50):
        nodes[0].send(1, "T", f"p{i}")
    net.run()
    # Jitter permutes delivery order; every payload must arrive intact
    # exactly once (a pooled envelope clearing or reusing too early would
    # surface as None or duplicated payloads here).
    assert {p for p, _ in seen} == {f"p{i}" for i in range(50)}
    assert len(seen) == 50
    assert net._pool  # envelopes actually got recycled
    # Every network pools: there is no option to turn it off.
    with pytest.raises(TypeError, match="pool_envelopes"):
        Network(NetworkParams(), np.random.default_rng(0), pool_envelopes=False)
