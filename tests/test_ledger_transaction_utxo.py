"""Transactions, UTXO set and the authentication function V."""

import dataclasses
import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import H_int
from repro.ledger.transaction import (
    ShardMap,
    Transaction,
    TxInput,
    TxOutput,
    make_transfer,
    shard_of_address,
)
from repro.ledger.transaction import make_coinbase
from repro.ledger.utxo import (
    UTXOSet,
    ValidationResult,
    transaction_fee,
    validate_batch,
    validate_transaction,
)


@pytest.fixture
def funded():
    """A UTXO set holding one 100-coin output for alice."""
    utxos = UTXOSet()
    genesis = make_coinbase([TxOutput("alice", 100)])
    utxos.add((genesis.txid, 0), genesis.outputs[0])
    return utxos, (genesis.txid, 0)


@pytest.mark.parametrize("cls", [TxInput, TxOutput, Transaction])
def test_written_out_constructors_are_the_dataclass_ones(cls):
    """The three hand-written ``__init__``s take the fields in order with the
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
    assert len({c.__init__.__code__.co_firstlineno for c in (TxInput, TxOutput, Transaction)}) == 3
    record = cls(*range(len(fields)))
    assert [getattr(record, f.name) for f in fields] == list(range(len(fields)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, fields[0].name, None)


def test_txid_deterministic_and_unique():
    tx1 = Transaction(inputs=(), outputs=(TxOutput("a", 1),), nonce=1)
    tx2 = Transaction(inputs=(), outputs=(TxOutput("a", 1),), nonce=2)
    assert tx1.txid == Transaction(inputs=(), outputs=(TxOutput("a", 1),), nonce=1).txid
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
    assert tx.outputs[0] == TxOutput("bob", 30)
    assert tx.outputs[1] == TxOutput("alice", 68)


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
    phantom = TxInput(b"\x42" * 32, 0)
    tx = Transaction(inputs=(phantom,), outputs=(TxOutput("bob", 1),))
    assert validate_transaction(tx, utxos) is ValidationResult.MISSING_INPUT


def test_duplicate_input(funded):
    utxos, source = funded
    tx = Transaction(
        inputs=(TxInput(*source), TxInput(*source)),
        outputs=(TxOutput("bob", 150),),
    )
    assert validate_transaction(tx, utxos) is ValidationResult.DUPLICATE_INPUT


def test_overspend(funded):
    utxos, source = funded
    tx = Transaction(inputs=(TxInput(*source),), outputs=(TxOutput("bob", 101),))
    assert validate_transaction(tx, utxos) is ValidationResult.OVERSPEND


def test_empty_outputs(funded):
    utxos, source = funded
    tx = Transaction(inputs=(TxInput(*source),), outputs=())
    assert validate_transaction(tx, utxos) is ValidationResult.EMPTY


def test_nonpositive_output(funded):
    utxos, source = funded
    tx = Transaction(inputs=(TxInput(*source),), outputs=(TxOutput("bob", 0),))
    assert validate_transaction(tx, utxos) is ValidationResult.NONPOSITIVE_OUTPUT


def test_user_coinbase_rejected(funded):
    utxos, _ = funded
    tx = make_coinbase([TxOutput("thief", 10)])
    assert validate_transaction(tx, utxos) is ValidationResult.OVERSPEND


def test_apply_and_fee(funded):
    utxos, source = funded
    tx = make_transfer(source, 100, "bob", 40, "alice", fee=3)
    assert transaction_fee(tx, utxos) == 3
    total_before = utxos.total_value()
    utxos.apply_transaction(tx)
    assert source not in utxos
    assert (tx.txid, 0) in utxos
    assert utxos.total_value() == total_before - 3  # the fee left the set


def test_double_spend_after_apply(funded):
    utxos, source = funded
    tx = make_transfer(source, 100, "bob", 40, "alice")
    utxos.apply_transaction(tx)
    again = make_transfer(source, 100, "carol", 10, "alice", nonce=5)
    assert validate_transaction(again, utxos) is ValidationResult.MISSING_INPUT


def test_snapshot_restore(funded):
    utxos, source = funded
    snapshot = utxos.snapshot()
    utxos.apply_transaction(make_transfer(source, 100, "bob", 40, "alice"))
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
    # non-sequential mode sees both as individually valid
    results_ns = validate_batch([tx1, tx2], utxos, sequential=False)
    assert all(r is ValidationResult.VALID for r in results_ns)
    # and the original set is untouched either way
    assert source in utxos


def test_outpoints_of_address(funded):
    utxos, source = funded
    assert utxos.outpoints_of("alice") == [source]
    assert utxos.outpoints_of("nobody") == []


def test_spend_missing_raises(funded):
    utxos, _ = funded
    with pytest.raises(KeyError):
        utxos.spend((b"\x00" * 32, 7))


def test_add_duplicate_raises(funded):
    utxos, source = funded
    with pytest.raises(ValueError):
        utxos.add(source, TxOutput("x", 1))
