"""Shard state and chain."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from listing_machine import ADD, BLOCK, SPEND, WHOLE, run_listing_machine
from reference_impls import method_apply_block, tuple_digest_items
from tx_builders import make_transfer

from repro.backends import create_backend
from repro.core.config import ProtocolParams
from repro.crypto.hashing import canonical_bytes
from repro.ledger.chain import GENESIS_PREV_HASH, Block, Chain
from repro.ledger.state import ShardState, apply_block
from repro.ledger.transaction import (
    ShardMap,
    Transaction,
    make_coinbase,
    shard_of_address,
)
from repro.ledger.utxo import UTXOSet


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


def shard_views(m: int, genesis=None) -> tuple[list[ShardState], UTXOSet]:
    """m shard views and the global view, holding ``genesis`` if given."""
    states, pool = [ShardState(k, m) for k in range(m)], UTXOSet()
    if genesis is not None:
        apply_block(states, [genesis], ShardMap(m), pool)
    return states, pool


def test_state_filters_genesis_by_shard():
    m = 4
    genesis = make_coinbase([(f"user-{i}", 10) for i in range(40)])
    states, pool = shard_views(m, genesis)
    assert len(pool) == 40
    assert sum(state.size() for state in states) == 40
    for state in states:
        for op in state.utxos:
            owner, _amount = state.utxos.get(op)
            assert shard_of_address(owner, m) == state.shard


def test_state_shard_range():
    with pytest.raises(ValueError):
        ShardState(5, 4)


def test_apply_block_spends_and_creates():
    m = 2
    genesis = make_coinbase([(f"user-{i}", 100) for i in range(10)])
    states, pool = shard_views(m, genesis)
    # pick a genesis output and build a transfer from it
    home = shard_of_address("user-0", m)
    index = [i for i, (owner, _) in enumerate(genesis.outputs) if owner == "user-0"][0]
    tx = make_transfer((genesis.txid, index), 100, "user-1", 25, "user-0")
    sizes = [state.size() for state in states]
    assert apply_block(states, [tx], ShardMap(m), pool) == (1, 2, 1)
    # home loses the input and gains the change; the payee's shard gains one
    sizes[shard_of_address("user-1", m)] += 1
    assert [state.size() for state in states] == sizes
    assert (genesis.txid, index) not in states[home].utxos
    assert len(pool) == sum(sizes)
    # the block is applied once: a second application finds its input spent
    with pytest.raises(KeyError, match="not unspent"):
        apply_block(states, [tx], ShardMap(m), pool)
    assert [state.size() for state in states] == sizes


def test_apply_block_wants_every_shard_view_in_order():
    states, pool = shard_views(3)
    for wrong in (states[:2], states[::-1], [ShardState(0, 2), ShardState(1, 2), states[2]]):
        with pytest.raises(ValueError):
            apply_block(wrong, [], ShardMap(3), pool)
    with pytest.raises(ValueError, match="shard_of maps into 2 shards, not 3"):
        apply_block(states, [], ShardMap(2), pool)
    assert apply_block(states, [], ShardMap(3), pool) == (0, 0, 0)


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
    """One walk over the block leaves the global view and every shard
    exactly as the method walk did, whose sets each move by their own
    ``spend`` / ``add`` alone: same items in the same dict order, same
    version count, same size, same (spent, created, fees) totals, or the
    same exception (a spent or never-made input) with what came before it
    standing."""
    genesis = make_coinbase([(owner, 100) for owner in owners])
    (routed, routed_pool), (looped, looped_pool) = shard_views(m), shard_views(m)
    shard_of = ShardMap(m)
    assert apply_block(routed, [genesis], shard_of, routed_pool) == method_apply_block(
        looped, [genesis], shard_of, looped_pool
    )
    known = [(genesis.txid, i) for i in range(len(owners))]
    nonce = 0

    def outcome(apply, *args):
        try:
            return apply(*args)
        except KeyError as exc:
            return str(exc)

    def same():
        pairs = [(new.utxos, old.utxos) for new, old in zip(routed, looped)]
        for new, old in [(routed_pool, looped_pool), *pairs]:
            assert list(new.snapshot().items()) == list(old.snapshot().items())
            assert new.version == old.version
            assert len(new) == len(old)

    same()
    for scripts in blocks:
        block = []
        for refs, outputs in scripts:
            nonce += 1
            tx = Transaction(
                inputs=tuple(
                    known[r % len(known)]
                    if r >= 0
                    else (bytes([-r]) * 32, 0)
                    for r in refs
                ),
                outputs=tuple(outputs),
                nonce=nonce,
            )
            known += [(tx.txid, i) for i in range(len(outputs))]
            block.append(tx)
        assert outcome(apply_block, routed, block, shard_of, routed_pool) == outcome(
            method_apply_block, looped, block, shard_of, looped_pool
        )
        same()


def test_validate_against_shard_view():
    m = 2
    genesis = make_coinbase([(f"user-{i}", 100) for i in range(10)])
    state0 = shard_views(m, genesis)[0][0]
    # a tx whose input lives in shard 1 looks like MISSING_INPUT to shard 0
    owner1 = next(
        owner for owner, _ in genesis.outputs if shard_of_address(owner, m) == 1
    )
    index = [i for i, (owner, _) in enumerate(genesis.outputs) if owner == owner1][0]
    tx = make_transfer((genesis.txid, index), 100, "user-0", 5, owner1)
    assert not state0.validate(tx)


def test_digest_items_deterministic():
    genesis = make_coinbase([(f"user-{i}", 10) for i in range(6)])
    ((a,), a_pool), ((b,), b_pool) = shard_views(1, genesis), shard_views(1, genesis)
    assert a.digest_items() == b.digest_items()
    assert hash(a.digest_items()) == hash(b.digest_items())
    # ... and it is the content that is compared, not the object
    spend = make_transfer((genesis.txid, 0), 10, "user-1", 3, "user-0")
    apply_block([a], [spend], ShardMap(1), a_pool)
    assert a.digest_items() != b.digest_items()
    apply_block([b], [spend], ShardMap(1), b_pool)
    assert a.digest_items() == b.digest_items()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.lists(st.one_of(BLOCK, ADD, SPEND, WHOLE), max_size=16),
    st.booleans(),
)
def test_listing_follows_blocks_and_every_other_edit(m, steps, every_step):
    """``digest_items`` merges what ``apply_block`` touched and rescans after
    anything else moved a set; either way it is the sorted tuple."""
    run_listing_machine(m, steps, every_step)


def test_listing_after_a_block_encodes_only_what_it_created(monkeypatch):
    """A listed 5 000-entry shard: after a block, the next listing takes no
    snapshot of the set and encodes the block's new outputs alone."""
    import repro.ledger.state as state_module

    genesis = make_coinbase([(f"user-{i}", 100) for i in range(5_000)])
    (state,), pool = shard_views(1, genesis)
    state.digest_items()
    spend = make_transfer((genesis.txid, 7), 100, "user-1", 10, "user-7", nonce=1)
    apply_block([state], [spend], ShardMap(1), pool)
    encoded = []
    real = state_module._listing_entry
    monkeypatch.setattr(
        state_module, "_listing_entry",
        lambda op, output: encoded.append(op) or real(op, output),
    )

    def no_snapshot(self):
        raise AssertionError("the listing copied the whole set")

    monkeypatch.setattr(UTXOSet, "snapshot", no_snapshot)
    listing = state.digest_items()
    assert encoded == [(spend.txid, 0), (spend.txid, 1)]
    monkeypatch.undo()
    assert listing.canonical == canonical_bytes(tuple_digest_items(state))


@pytest.mark.parametrize("backend", ["rapidchain", "omniledger_sim"])
def test_a_rival_run_notes_no_touches(backend):
    """The rivals apply blocks but never list a shard, so no shard keeps a
    note of what the blocks touched; CycLedger's listed shards do."""
    params = ProtocolParams(n=48, m=4, lam=2, referee_size=8, tx_per_committee=6)
    rival, cycledger = create_backend(backend, params), create_backend("cycledger", params)
    rival.run(3)
    cycledger.run(3)
    assert all(state._touched is None for state in rival.shard_states)
    assert all(isinstance(state._touched, list) for state in cycledger.shard_states)


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
