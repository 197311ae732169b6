"""Shard state and chain."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import per_shard_add_genesis, per_shard_apply_block

from repro.ledger.chain import GENESIS_PREV_HASH, Block, Chain
from repro.ledger.state import ShardState, apply_block
from repro.ledger.transaction import (
    Transaction,
    TxInput,
    TxOutput,
    make_coinbase,
    make_transfer,
    shard_of_address,
)


def make_block(round_number: int, prev_hash: bytes, txs=()) -> Block:
    return Block(
        round_number=round_number,
        prev_hash=prev_hash,
        transactions=tuple(txs),
        randomness=b"r" * 32,
        participants=("pk1",),
        reputations=(("pk1", 0.0),),
        referee=("pk1",),
        leaders=("pk2",),
        partial_sets=(("pk3",),),
    )


# -- ShardState ---------------------------------------------------------------


def shard_views(m: int, genesis=None) -> list[ShardState]:
    states = [ShardState(k, m) for k in range(m)]
    if genesis is not None:
        apply_block(states, [genesis])
    return states


def test_state_filters_genesis_by_shard():
    m = 4
    genesis = make_coinbase([TxOutput(f"user-{i}", 10) for i in range(40)])
    states = shard_views(m, genesis)
    assert sum(state.size() for state in states) == 40
    for state in states:
        for op in state.utxos:
            owner = state.utxos.get(op).address
            assert shard_of_address(owner, m) == state.shard


def test_state_shard_range():
    with pytest.raises(ValueError):
        ShardState(5, 4)


def test_apply_block_spends_and_creates():
    m = 2
    genesis = make_coinbase([TxOutput(f"user-{i}", 100) for i in range(10)])
    states = shard_views(m, genesis)
    # pick a genesis output and build a transfer from it
    home = shard_of_address("user-0", m)
    index = [i for i, o in enumerate(genesis.outputs) if o.address == "user-0"][0]
    tx = make_transfer((genesis.txid, index), 100, "user-1", 25, "user-0")
    sizes = [state.size() for state in states]
    assert apply_block(states, [tx]) == (1, 2)
    # home loses the input and gains the change; the payee's shard gains one
    sizes[shard_of_address("user-1", m)] += 1
    assert [state.size() for state in states] == sizes
    assert (genesis.txid, index) not in states[home].utxos
    # the block is applied once: a second application finds nothing to spend
    # and refuses to create the same outputs again
    with pytest.raises(ValueError):
        apply_block(states, [tx])


def test_apply_block_wants_every_shard_view_in_order():
    states = shard_views(3)
    for wrong in (states[:2], states[::-1], [ShardState(0, 2), ShardState(1, 2), states[2]]):
        with pytest.raises(ValueError):
            apply_block(wrong, [])
    assert apply_block(states, []) == (0, 0)


ADDRESSES = [f"user-{i}" for i in range(24)]
# One transaction: input references (>= 0 picks, modulo, an outpoint some
# earlier transaction created — spent or not, so double spends within and
# across blocks occur; < 0 is an outpoint nobody ever created) and outputs.
tx_scripts = st.tuples(
    st.lists(st.integers(-3, 40), max_size=3),  # no inputs: a coinbase
    st.lists(st.tuples(st.sampled_from(ADDRESSES), st.integers(1, 50)), max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 4, 16]),
    st.lists(st.sampled_from(ADDRESSES), min_size=1, max_size=12),
    st.lists(st.lists(tx_scripts, max_size=6), max_size=4),
)
def test_route_once_application_is_the_per_shard_loop(m, owners, blocks):
    """One walk over the block leaves every shard exactly as filtering the
    whole block through that shard did: same items in the same dict order,
    same version count, same size, same (spent, created) totals."""
    genesis = make_coinbase([TxOutput(owner, 100) for owner in owners])
    routed = shard_views(m, genesis)
    looped = shard_views(m)
    for state in looped:
        per_shard_add_genesis(state, genesis)
    known = [(genesis.txid, i) for i in range(len(owners))]
    nonce = 0

    def same():
        for new, old in zip(routed, looped):
            assert list(new.utxos.snapshot().items()) == list(
                old.utxos.snapshot().items()
            )
            assert new.utxos.version == old.utxos.version
            assert new.size() == old.size()

    same()
    for scripts in blocks:
        block = []
        for refs, outputs in scripts:
            nonce += 1
            tx = Transaction(
                inputs=tuple(
                    TxInput(*known[r % len(known)])
                    if r >= 0
                    else TxInput(bytes([-r]) * 32, 0)
                    for r in refs
                ),
                outputs=tuple(TxOutput(*o) for o in outputs),
                nonce=nonce,
            )
            known += [(tx.txid, i) for i in range(len(outputs))]
            block.append(tx)
        counts = [per_shard_apply_block(state, block) for state in looped]
        assert apply_block(routed, block) == tuple(map(sum, zip(*counts)))
        same()


def test_validate_against_shard_view():
    m = 2
    genesis = make_coinbase([TxOutput(f"user-{i}", 100) for i in range(10)])
    state0 = shard_views(m, genesis)[0]
    # a tx whose input lives in shard 1 looks like MISSING_INPUT to shard 0
    owner1 = next(
        o.address for o in genesis.outputs if shard_of_address(o.address, m) == 1
    )
    index = [i for i, o in enumerate(genesis.outputs) if o.address == owner1][0]
    tx = make_transfer((genesis.txid, index), 100, "user-0", 5, owner1)
    assert not state0.validate(tx)


def test_digest_items_deterministic():
    genesis = make_coinbase([TxOutput(f"user-{i}", 10) for i in range(6)])
    (a,), (b,) = shard_views(1, genesis), shard_views(1, genesis)
    assert a.digest_items() == b.digest_items()
    assert hash(a.digest_items()) == hash(b.digest_items())
    # ... and it is the content that is compared, not the object
    spend = make_transfer((genesis.txid, 0), 10, "user-1", 3, "user-0")
    apply_block([a], [spend])
    assert a.digest_items() != b.digest_items()
    apply_block([b], [spend])
    assert a.digest_items() == b.digest_items()


# -- Chain -------------------------------------------------------------------


def test_chain_append_and_verify():
    chain = Chain()
    b1 = make_block(1, GENESIS_PREV_HASH)
    chain.append(b1)
    b2 = make_block(2, b1.hash)
    chain.append(b2)
    assert len(chain) == 2
    assert chain.verify()
    assert chain.head is b2


def test_chain_rejects_broken_link():
    chain = Chain()
    chain.append(make_block(1, GENESIS_PREV_HASH))
    with pytest.raises(ValueError):
        chain.append(make_block(2, b"\x01" * 32))


def test_chain_rejects_nonmonotonic_rounds():
    chain = Chain()
    b1 = make_block(5, GENESIS_PREV_HASH)
    chain.append(b1)
    with pytest.raises(ValueError):
        chain.append(make_block(5, b1.hash))


def test_empty_chain_head_raises():
    with pytest.raises(IndexError):
        Chain().head


def test_block_hash_covers_contents():
    a = make_block(1, GENESIS_PREV_HASH)
    b = Block(
        round_number=1,
        prev_hash=GENESIS_PREV_HASH,
        transactions=(),
        randomness=b"s" * 32,  # differs
        participants=("pk1",),
        reputations=(("pk1", 0.0),),
        referee=("pk1",),
        leaders=("pk2",),
        partial_sets=(("pk3",),),
    )
    assert a.hash != b.hash
