"""Transactions, UTXO set and the authentication function V."""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_impls import (
    method_apply_block,
    method_validate_transaction,
    scratch_copy_validate_batch,
)
from tx_builders import make_transfer

from repro.crypto.hashing import H_int
from repro.ledger.state import ShardState, apply_block
from repro.ledger.transaction import (
    ShardMap,
    Transaction,
    shard_of_address,
)
from repro.ledger.transaction import make_coinbase
from repro.ledger.workload import TaggedTx
from repro.ledger.utxo import (
    UTXOSet,
    ValidationResult,
    validate_batch,
    validate_transaction,
)
from repro.net.message import fields_size, payload_size


@pytest.fixture
def funded():
    """A UTXO set holding one 100-coin output for alice."""
    utxos = UTXOSet()
    genesis = make_coinbase([("alice", 100)])
    utxos.add((genesis.txid, 0), genesis.outputs[0])
    return utxos, (genesis.txid, 0)


#: ``Transaction`` and ``TaggedTx`` are built per generated transaction.
WRITTEN_OUT = (Transaction, TaggedTx)
#: Arguments for a record that derives state from its fields when built.
ARGS = {Transaction: ((), (("a", 1),), 2)}


@pytest.mark.parametrize("cls", WRITTEN_OUT)
def test_written_out_constructors_are_the_dataclass_ones(cls):
    """The hand-written ``__init__``s take the fields in order with the
    field defaults, leave the record frozen, and (why they exist) have code
    of their own rather than the ``('<string>', 2, '__init__')`` every
    generated constructor shares in a ``pstats``-keyed profile."""
    fields = dataclasses.fields(cls)
    params = inspect.signature(cls).parameters
    assert list(params) == [f.name for f in fields]
    for f in fields:
        default = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        assert params[f.name].default == default
    code = cls.__init__.__code__
    assert code.co_filename == inspect.getsourcefile(cls)
    assert len({c.__init__.__code__ for c in WRITTEN_OUT}) == len(WRITTEN_OUT)
    args = ARGS.get(cls, tuple(range(len(fields))))
    record = cls(*args)
    assert [getattr(record, f.name) for f in fields] == list(args)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, fields[0].name, None)


def test_a_transaction_is_slotted_and_derives_once():
    """No instance ``__dict__``: the txid and the size are slots filled at
    construction, outside the fields, so equality, hashing, sizing and the
    pickle stream see only ``(inputs, outputs, nonce)``."""
    tx = make_transfer((b"\x01" * 32, 0), 100, "bob", 30, "alice", nonce=4)
    assert not hasattr(tx, "__dict__")
    assert [f.name for f in dataclasses.fields(tx)] == ["inputs", "outputs", "nonce"]
    assert tx.outpoints() is tx.inputs
    assert tx.wire_size == fields_size(tx) == payload_size(tx)
    # A derived slot is not a field, and no more assignable than one.
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        tx.txid = b""
    assert tx.txid not in pickle.dumps(tx)
    for twin in (pickle.loads(pickle.dumps(tx)), copy.copy(tx), copy.deepcopy(tx)):
        assert twin == tx and hash(twin) == hash(tx)
        assert (twin.txid, twin.wire_size) == (tx.txid, tx.wire_size)
    assert tx != dataclasses.replace(tx, nonce=5)
    assert dataclasses.replace(tx, nonce=5).txid == make_transfer(
        (b"\x01" * 32, 0), 100, "bob", 30, "alice", nonce=5
    ).txid


def test_txid_deterministic_and_unique():
    tx1 = Transaction(inputs=(), outputs=(("a", 1),), nonce=1)
    tx2 = Transaction(inputs=(), outputs=(("a", 1),), nonce=2)
    assert tx1.txid == Transaction(inputs=(), outputs=(("a", 1),), nonce=1).txid
    assert tx1.txid != tx2.txid


def test_shard_of_address_stable_and_in_range():
    for m in (1, 3, 16):
        shard = shard_of_address("user-1", m)
        assert 0 <= shard < m
        assert shard == shard_of_address("user-1", m)
    with pytest.raises(ValueError):
        shard_of_address("x", 0)


@given(st.text(max_size=12), st.integers(1, 64), st.integers(1, 64))
def test_shard_of_address_is_the_hash_rule_however_often_asked(address, m, other_m):
    """A ledger's derive-once ``ShardMap`` answers what ``H_int("SHARD", a)
    % m`` answers, from its first ask on — one map per m, so one address
    under two m's never shares an entry — and no m below 1 is accepted."""
    maps = {modulus: ShardMap(modulus) for modulus in (m, other_m)}
    for _ in range(2):  # the second pass is answered from the map
        for modulus, shard_of in maps.items():
            expected = H_int("SHARD", address) % modulus
            assert shard_of_address(address, modulus) == expected
            assert shard_of[address] == expected
    for bad in (0, -m):
        with pytest.raises(ValueError):
            shard_of_address(address, bad)
        with pytest.raises(ValueError):
            ShardMap(bad)


def test_make_transfer_with_change(funded):
    _, source = funded
    tx = make_transfer(source, 100, "bob", 30, "alice", fee=2)
    assert tx.output_total() == 98
    assert tx.outputs[0] == ("bob", 30)
    assert tx.outputs[1] == ("alice", 68)


def test_make_transfer_exact_no_change(funded):
    _, source = funded
    tx = make_transfer(source, 100, "bob", 99, "alice", fee=1)
    assert len(tx.outputs) == 1


def test_make_transfer_insufficient_raises(funded):
    _, source = funded
    with pytest.raises(ValueError):
        make_transfer(source, 100, "bob", 100, "alice", fee=1)


def test_valid_transaction(funded):
    utxos, source = funded
    tx = make_transfer(source, 100, "bob", 50, "alice")
    assert validate_transaction(tx, utxos) is ValidationResult.VALID
    assert bool(validate_transaction(tx, utxos))


def test_missing_input(funded):
    utxos, _ = funded
    phantom = (b"\x42" * 32, 0)
    tx = Transaction(inputs=(phantom,), outputs=(("bob", 1),))
    assert validate_transaction(tx, utxos) is ValidationResult.MISSING_INPUT


def test_duplicate_input(funded):
    utxos, source = funded
    tx = Transaction(
        inputs=(source, source),
        outputs=(("bob", 150),),
    )
    assert validate_transaction(tx, utxos) is ValidationResult.DUPLICATE_INPUT


def test_overspend(funded):
    utxos, source = funded
    tx = Transaction(inputs=(source,), outputs=(("bob", 101),))
    assert validate_transaction(tx, utxos) is ValidationResult.OVERSPEND


def test_empty_outputs(funded):
    utxos, source = funded
    tx = Transaction(inputs=(source,), outputs=())
    assert validate_transaction(tx, utxos) is ValidationResult.EMPTY


def test_nonpositive_output(funded):
    utxos, source = funded
    tx = Transaction(inputs=(source,), outputs=(("bob", 0),))
    assert validate_transaction(tx, utxos) is ValidationResult.NONPOSITIVE_OUTPUT


def test_user_coinbase_rejected(funded):
    utxos, _ = funded
    tx = make_coinbase([("thief", 10)])
    assert validate_transaction(tx, utxos) is ValidationResult.OVERSPEND


def _one_shard(utxos):
    """A shard view holding what the global view ``utxos`` holds (m = 1)."""
    state = ShardState(0, 1)
    state.utxos.restore(utxos.snapshot())
    return [state]


def test_apply_and_fee(funded):
    utxos, source = funded
    tx = make_transfer(source, 100, "bob", 40, "alice", fee=3)
    total_before = utxos.total_value()
    assert apply_block(_one_shard(utxos), [tx], ShardMap(1), utxos) == (1, 2, 3)
    assert source not in utxos
    assert (tx.txid, 0) in utxos
    assert utxos.total_value() == total_before - 3  # the fee left the set


def test_double_spend_after_apply(funded):
    utxos, source = funded
    tx = make_transfer(source, 100, "bob", 40, "alice")
    apply_block(_one_shard(utxos), [tx], ShardMap(1), utxos)
    again = make_transfer(source, 100, "carol", 10, "alice", nonce=5)
    assert validate_transaction(again, utxos) is ValidationResult.MISSING_INPUT


def test_snapshot_restore(funded):
    utxos, source = funded
    snapshot = utxos.snapshot()
    apply_block(
        _one_shard(utxos),
        [make_transfer(source, 100, "bob", 40, "alice")],
        ShardMap(1),
        utxos,
    )
    utxos.restore(snapshot)
    assert source in utxos
    assert len(utxos) == 1


def test_validate_batch_sequential_catches_intra_batch_double_spend(funded):
    utxos, source = funded
    tx1 = make_transfer(source, 100, "bob", 40, "alice", nonce=1)
    tx2 = make_transfer(source, 100, "carol", 40, "alice", nonce=2)
    results = validate_batch([tx1, tx2], utxos)
    assert results[0] is ValidationResult.VALID
    assert results[1] is ValidationResult.MISSING_INPUT
    # each is valid alone, and the original set is untouched
    assert validate_batch([tx2], utxos) == [ValidationResult.VALID]
    assert source in utxos


def test_spend_missing_raises(funded):
    utxos, _ = funded
    with pytest.raises(KeyError):
        utxos.spend((b"\x00" * 32, 7))


def test_add_duplicate_raises(funded):
    utxos, source = funded
    with pytest.raises(ValueError):
        utxos.add(source, ("x", 1))


# -- V and the UTXO updates, held to their method-call forms -------------------
#: Six outpoints: the first four are live in the drawn set, the last two never.
_POOL = [(bytes([k + 1]) * 32, k % 2) for k in range(6)]
_AMOUNTS = st.one_of(
    st.integers(-3, 6),
    st.booleans(),
    st.floats(-2.0, 6.0, allow_nan=False),
    st.sampled_from([0, 0.0, -0.0, 0.1, 0.2, 0.3, 0.7]),
)


#: An input's index as an int or a numpy int (the same outpoint either way).
_INDEX_KINDS = st.sampled_from([int, np.int64])


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(1, 9), st.integers(1, 9).map(np.int64), st.booleans(), st.floats(0.1, 9.0)
        ),
        min_size=4,
        max_size=4,
    ),
    st.lists(st.tuples(st.integers(0, len(_POOL) - 1), _INDEX_KINDS), min_size=1, max_size=3),
    st.lists(st.tuples(st.sampled_from(["a", "b"]), _AMOUNTS), max_size=4),
)
@example([1, 1, 1, 1], [(0, int), (0, np.int64)], [("a", 1)])  # one outpoint twice
@example([1, 1, 1, 1], [(0, int)], [("a", 0.7), ("a", 0.2), ("b", 0.1)])  # float sums
def test_v_is_the_method_call_v(values, picks, outputs):
    """V over drawn transactions (no outputs; zero, negative, bool and float
    amounts; numpy-int and bool coins, numpy-int input indices; 1-3 inputs,
    repeated or missing) gives the verdict of V as it read through the set's
    methods, with the same precedence of results."""
    utxos = UTXOSet()
    for outpoint, value in zip(_POOL, values):
        utxos.add(outpoint, ("owner", value))
    inputs = tuple((_POOL[p][0], kind(_POOL[p][1])) for p, kind in picks)
    tx = Transaction(inputs=inputs, outputs=tuple(outputs), nonce=1)
    assert validate_transaction(tx, utxos) is method_validate_transaction(tx, utxos)


def _outcome(apply, *args):
    try:
        return apply(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


_STEPS = st.lists(
    st.tuples(
        # inputs, by position in the outpoints made so far; repeats too
        st.lists(st.tuples(st.integers(0, 40), _INDEX_KINDS), max_size=3),
        st.lists(
            st.tuples(st.sampled_from(["alice", "bob", "carol", "dave"]), st.integers(1, 5)),
            max_size=3,
        ),
        st.integers(0, 2),  # a small nonce space: equal transactions recur
    ),
    max_size=8,
)


def _drawn_txs(steps, outpoints):
    """Transactions from drawn steps; each may spend what an earlier one
    created (``outpoints`` grows as they are built)."""
    txs = []
    for picks, outputs, nonce in steps:
        drawn = [(outpoints[p % len(outpoints)], kind) for p, kind in picks]
        tx = Transaction(
            inputs=tuple((txid, kind(index)) for (txid, index), kind in drawn),
            outputs=tuple(outputs),
            nonce=nonce,
        )
        txs.append(tx)
        outpoints += [(tx.txid, k) for k in range(len(outputs))]
    return txs


def _assert_same_set(fast, slow):
    assert list(fast.snapshot().items()) == list(slow.snapshot().items())
    assert fast.version == slow.version


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 16]), st.lists(_STEPS, min_size=1, max_size=2))
def test_apply_block_is_the_method_walk(m, blocks):
    """Block after block, ``apply_block`` leaves the global view and every
    shard's contents in the same dict order, their ``version`` and size, and
    the (spent, created, fees) counts or the exception (a spent, repeated or
    never-made input; what came before it stands), of the walk through the
    sets' methods, and stores one outpoint tuple and the very output tuple
    in the global view and its shard."""
    shard_of = ShardMap(m)
    fast, slow = ([ShardState(k, m) for k in range(m)] for _ in range(2))
    fast_pool, slow_pool = UTXOSet(), UTXOSet()
    genesis = make_coinbase([(f"user-{k}", k + 1) for k in range(6)])
    assert apply_block(fast, [genesis], shard_of, fast_pool) == method_apply_block(
        slow, [genesis], shard_of, slow_pool
    )
    # The last outpoint is never made: no view holds it.
    outpoints = [(genesis.txid, k) for k in range(6)] + [(b"\x09" * 32, 0)]
    for steps in blocks:
        txs = _drawn_txs(steps, outpoints)
        outcome = _outcome(apply_block, fast, txs, shard_of, fast_pool)
        assert outcome == _outcome(method_apply_block, slow, txs, shard_of, slow_pool)
        _assert_same_set(fast_pool, slow_pool)
        for mine, theirs in zip(fast, slow):
            _assert_same_set(mine.utxos, theirs.utxos)
            assert mine.size() == theirs.size()
        for state in fast:
            for outpoint, output in state.utxos._utxos.items():
                held = next(op for op in fast_pool._utxos if op == outpoint)
                assert held is outpoint and fast_pool.get(outpoint) is output


def test_an_input_missing_from_the_global_view_raises():
    """A shard may hold what the global view lacks only when the views
    disagree; the walk spends from the global view, so that input raises
    ``KeyError`` naming it, and the transactions before it stand."""
    shard_of, pool = ShardMap(2), UTXOSet()
    states = [ShardState(k, 2) for k in range(2)]
    genesis = make_coinbase([("alice", 100), ("bob", 50)])
    apply_block(states, [genesis], shard_of, pool)
    stray = (b"\x09" * 32, 0)
    states[shard_of["carol"]].utxos.add(stray, ("carol", 7))
    first = make_transfer((genesis.txid, 0), 100, "bob", 40, "alice", nonce=1)
    second = make_transfer(stray, 7, "bob", 1, "carol", nonce=2)
    with pytest.raises(KeyError, match="09090909:0 not unspent"):
        apply_block(states, [first, second], shard_of, pool)
    assert (genesis.txid, 0) not in pool and (first.txid, 0) in pool
    assert stray in states[shard_of["carol"]].utxos and stray not in pool


_BATCH_POOL = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 40), _INDEX_KINDS), max_size=3),
        st.lists(
            st.tuples(
                st.sampled_from(["alice", "bob"]),
                st.one_of(st.integers(-1, 9), st.floats(0.1, 9.0)),
            ),
            max_size=3,
        ),
        st.integers(0, 2),
    ),
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(_BATCH_POOL)
@example([([(0, int)], [("a", 1)], 0), ([(7, int)], [("b", 1)], 0)])  # chained
@example([([(0, int)], [("a", 1)], 0), ([(7, np.int64)], [("b", 1)], 0)])  # numpy index
@example([([(0, int)], [("a", 1)], 0), ([(0, int)], [("b", 1)], 1)])  # spent twice
@example([([(0, int), (0, np.int64)], [("a", 1)], 0)])  # one input twice
@example([([(0, int)], [("a", 9)], 0)])  # overspend
@example([([(6, int)], [("a", 1)], 0)])  # a phantom input: the pool's last entry
def test_validate_batch_is_the_scratch_copy_loop(steps):
    """The overlay gives the verdicts of V over a scratch copy of the set
    with each accepted transaction applied before the next (chained spends,
    repeated and double-spent inputs, overspends, phantom inputs, float
    amounts), and leaves the set's dict and ``version`` untouched."""
    utxos = UTXOSet()
    genesis = make_coinbase([(f"user-{k}", k + 1) for k in range(6)])
    for index, output in enumerate(genesis.outputs):
        utxos.add((genesis.txid, index), output)
    before, version = list(utxos._utxos.items()), utxos.version
    outpoints = [(genesis.txid, k) for k in range(6)] + [(b"\x09" * 32, 0)]
    txs = _drawn_txs(steps, outpoints)
    assert validate_batch(txs, utxos) == scratch_copy_validate_batch(txs, utxos)
    assert list(utxos._utxos.items()) == before and utxos.version == version


@pytest.mark.parametrize("index", [0, 1, -1, np.int64(0), True, 0.0])
def test_a_batch_spends_only_the_outputs_it_made(funded, index):
    """An output made earlier in the batch is spendable under its index in
    every form an equal key takes, and no other index of that transaction
    is, as on the scratch copy."""
    utxos, source = funded
    made = Transaction(inputs=(source,), outputs=(("bob", 90),), nonce=1)
    spend = Transaction(inputs=((made.txid, index),), outputs=(("carol", 5),))
    verdicts = validate_batch([made, spend], utxos)
    assert verdicts == scratch_copy_validate_batch([made, spend], utxos)
    assert verdicts[1] is (
        ValidationResult.VALID if index == 0 else ValidationResult.MISSING_INPUT
    )
