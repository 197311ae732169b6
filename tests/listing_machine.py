"""The UTXO_FINAL listing state machine the listing tests share.

One runner drives m listed shard views through blocks and direct edits of
their sets and, at each listing, holds ``ShardState.digest_items`` to the
freshly sorted tuple of ``tests/reference_impls.py``'s
``tuple_digest_items`` and to the entries it may keep.  Each test draws its
steps from the kinds below.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import strategies as st
from reference_impls import tuple_digest_items

from repro.crypto.hashing import H, canonical_bytes
from repro.ledger.state import ShardState, apply_block
from repro.ledger.transaction import ShardMap, Transaction, make_coinbase
from repro.ledger.utxo import UTXOSet
from repro.net.message import payload_size


class Name(str):
    """A ``str`` subclass: the generic encoder encodes it as its base."""


def assert_listing_is_its_tuple(state):
    listing, plain = state.digest_items(), tuple_digest_items(state)
    txids = (b"\x01" * 32, b"\x02" * 32)
    assert canonical_bytes(listing) == listing.canonical == canonical_bytes(plain)
    assert payload_size(listing) == listing.wire_size == payload_size(plain)
    for build in (lambda v: ("ALG3", (v, txids)), lambda v: [v, (v, None)]):
        assert canonical_bytes(build(listing)) == canonical_bytes(build(plain))
        assert payload_size(build(listing)) == payload_size(build(plain))
    assert H("ALG3", (listing, txids)) == H("ALG3", (plain, txids))
    assert listing == state.digest_items()


def assert_listed_keeping_what_stayed(state):
    """The listing is the sorted tuple, and of the last listing's entries it
    re-encodes exactly those whose output object did not stay."""
    import repro.ledger.state as state_module

    before, encoded = dict(state._listing[0]), []
    real = state_module._listing_entry
    state_module._listing_entry = lambda op, out: encoded.append(op) or real(op, out)
    try:
        assert_listing_is_its_tuple(state)
    finally:
        state_module._listing_entry = real
    current = state.utxos.snapshot()
    assert sorted(encoded) == sorted(
        op for op, output in current.items() if before.get(op) is not output
    )
    assert state._listing[1] == sorted(current)


OWNERS = [f"user-{i}" for i in range(24)]
# One step on m listed shard views (``k`` picks one of them): a block of
# scripted transactions (input references >= 0 pick, modulo, an outpoint a
# block made, spent or not; < 0 one nobody made; the block keeps those whose
# inputs the global view still holds, as V would), a direct edit of one set
# (``add`` an outpoint of any txid length, spending it first if it is held;
# ``spend``; ``readd`` a held outpoint with an equal output tuple or
# another), ``restore`` every set to the last ``save``, ``compact``, a
# ``checkpoint`` round-trip of every set (pickled snapshots restored, as
# ``load_checkpoint`` does), or a listing.
tx_scripts = st.tuples(
    st.lists(st.integers(-3, 40), max_size=3),  # no inputs: a coinbase
    st.lists(st.tuples(st.sampled_from(OWNERS), st.integers(1, 50)), max_size=3),
)
BLOCK = st.tuples(st.just("block"), st.lists(tx_scripts, max_size=4))
ADD = st.tuples(  # a bool index, a bool or numpy-int amount, a str subclass
    st.just("add"),
    st.integers(0, 2),
    st.binary(max_size=4),
    st.one_of(st.integers(0, 3), st.booleans()),
    st.one_of(st.text(max_size=6), st.text(max_size=4).map(Name)),
    st.one_of(st.integers(-2, 10**20), st.booleans(), st.integers(0, 99).map(np.int64)),
)
SPEND = st.tuples(st.just("spend"), st.integers(0, 2), st.integers(0, 99))
READD = st.tuples(st.just("readd"), st.integers(0, 2), st.integers(0, 99), st.booleans())
WHOLE = st.tuples(st.sampled_from(["restore", "compact", "save", "checkpoint", "list"]))


def run_listing_machine(m, steps, every_step):
    """Apply ``steps`` to m shard views holding an 8-output genesis, listing
    every view after each step if ``every_step``, at each ``list`` step, and
    at the start and the end.  The global view goes along: blocks write it,
    a direct spend leaves it too, and the whole-set steps take it."""
    states, shard_of = [ShardState(k, m) for k in range(m)], ShardMap(m)
    pool = UTXOSet()
    sets = [pool] + [state.utxos for state in states]
    for state in states:
        assert_listed_keeping_what_stayed(state)  # the empty listing
    genesis = make_coinbase([(owner, 100) for owner in OWNERS[:8]])
    apply_block(states, [genesis], shard_of, pool)
    known = [(genesis.txid, i) for i in range(8)]
    saved = [utxos.snapshot() for utxos in sets]
    nonce = 0
    for step in steps:
        kind = step[0]
        utxos = states[step[1] % m].utxos if len(step) > 2 else None
        if kind == "block":
            block, live = [], set(pool)
            for refs, outputs in step[1]:
                nonce += 1
                tx = Transaction(
                    inputs=tuple(known[r % len(known)] if r >= 0 else (bytes([-r]) * 32, 0)
                                 for r in refs),
                    outputs=tuple(outputs),
                    nonce=nonce,
                )
                known += [(tx.txid, i) for i in range(len(outputs))]
                if live.issuperset(tx.inputs) and len(set(tx.inputs)) == len(refs):
                    live.difference_update(tx.inputs)
                    live.update((tx.txid, i) for i in range(len(outputs)))
                    block.append(tx)
            try:
                apply_block(states, block, shard_of, pool)
            except (KeyError, ValueError):  # the views disagree: what came before stands
                pass
        elif kind == "add":
            _, _k, txid, index, owner, amount = step
            if (txid, index) in utxos:
                utxos.spend((txid, index))
            utxos.add((txid, index), (owner, amount))
        elif kind == "spend" and len(utxos):
            op = list(utxos)[step[2] % len(utxos)]
            utxos.spend(op)
            if op in pool:
                pool.spend(op)
        elif kind == "readd" and len(utxos):
            op = list(utxos)[step[2] % len(utxos)]
            owner, amount = utxos.spend(op)
            utxos.add(op, (owner, amount if step[3] else amount + 1))
        elif kind == "restore":
            for each, snapshot in zip(sets, saved):
                each.restore(snapshot)
        elif kind == "compact":
            for each in sets:
                each.compact()
        elif kind == "save":
            saved = [each.snapshot() for each in sets]
        elif kind == "checkpoint":
            for each in sets:
                each.restore(pickle.loads(pickle.dumps(each.snapshot())))
        if every_step or kind == "list":
            for state in states:
                assert_listed_keeping_what_stayed(state)
    for state in states:
        assert_listed_keeping_what_stayed(state)
