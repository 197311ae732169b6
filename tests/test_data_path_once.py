"""The per-transaction data path derives each fact once — and only ever the
same fact the one-at-a-time code derived.

Each section pins one cache to its uncached reference: the vote-matrix
value to the tuple-of-rows encoding, publish-at-pack settlement to the
eager publish and its sequential ``list.remove`` undo, the V-verdict memo to plain ``validate_transaction``,
the VOTE identity memo to a fresh encoding, ``Transaction.wire_size`` to the
recursive dataclass sizer, and the UTXO listing to the freshly sorted tuple
of plain tuples.
"""

import pickle
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import EagerPublishWorkloadGenerator, tuple_digest_items

from repro import CycLedger, ProtocolParams, load_checkpoint, save_checkpoint
from repro.core.committee import run_committee_configuration
from repro.core.sandbox import build_sandbox
from repro.core.semicommit import run_semi_commitment_exchange
from repro.core.structures import VoteMatrix
from repro.core.voting import VoteRoundSession, input_side_votes
from repro.crypto.hashing import H, canonical_bytes
from repro.crypto.signatures import encode_statement, sign
from repro.ledger.state import ShardState, apply_block
from repro.ledger.transaction import (
    Transaction,
    TxInput,
    TxOutput,
    make_coinbase,
    make_transfer,
)
from repro.ledger.utxo import ValidationResult
from repro.ledger.workload import WorkloadGenerator
from repro.net.message import fields_size, payload_size


def as_rows(array):
    return tuple(map(tuple, np.asarray(array).tolist()))


# -- (i) the vote-matrix value ------------------------------------------------
matrices = st.tuples(st.integers(0, 6), st.integers(0, 9)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-1, 1), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: np.array(rows, dtype=np.int8).reshape(shape))
)


def assert_matrix_is_its_rows(array):
    value, rows = VoteMatrix(array), as_rows(array)
    txids = (b"\x01" * 32, b"\x02" * 32)
    assert canonical_bytes(value) == canonical_bytes(rows)
    assert payload_size(value) == payload_size(rows)
    for build in (
        lambda v: ("ALG3", (txids, v)),
        lambda v: ("VLIST", 3, 1, txids, v),
        lambda v: ("VOTE", 3, 1, "intra:1", v),
        lambda v: [v, (v, None)],
    ):
        assert canonical_bytes(build(value)) == canonical_bytes(build(rows))
        assert encode_statement(build(value)) == encode_statement(build(rows))
        assert payload_size(build(value)) == payload_size(build(rows))
    assert H("ALG3", (txids, value)) == H("ALG3", (txids, rows))


@given(matrices)
def test_vote_matrix_encodes_and_sizes_like_its_rows(array):
    assert_matrix_is_its_rows(array)


@pytest.mark.parametrize("shape", [(1, 0), (5, 0), (5, 1), (0, 0), (0, 3), (1, 1)])
@pytest.mark.parametrize("fill", [-1, 0, 1])
def test_vote_matrix_edge_shapes(shape, fill):
    assert_matrix_is_its_rows(np.full(shape, fill, dtype=np.int8))


def test_vote_matrix_covers_every_int8_value():
    assert_matrix_is_its_rows(np.arange(-128, 128, dtype=np.int8).reshape(4, 64))


def test_vote_matrix_is_immutable_and_private():
    source = np.ones((3, 2), dtype=np.int8)
    value = VoteMatrix(source)
    before = value.canonical
    source[0, 0] = -1  # the caller's array is not the value's
    assert value.array[0, 0] == 1
    with pytest.raises(ValueError):
        value.array[0, 0] = -1
    assert value.canonical is before  # built once
    restored = pickle.loads(pickle.dumps(value))
    assert not restored.array.flags.writeable
    assert restored.canonical == before
    assert "canonical" not in pickle.dumps(value).decode("latin1")


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 0), (1,)),  # ragged
        (1, 0, 1),  # flat
        ((0.5, 1.0),),  # not integers
        (("1", "0"),),
        ((1, 200),),  # not int8
        ((None, 1),),
        5,
    ],
)
def test_vote_matrix_rejects_what_is_not_a_vote_matrix(rows):
    with pytest.raises(ValueError):
        VoteMatrix(rows)


# -- (ii) publish-at-pack settlement == eager publish + the sequential undo ----
def generator_state(generator):
    return (
        [list(bucket) for bucket in generator._spendable],
        list(generator._spent),
        dict(generator._effects),
        generator.rng.bit_generator.state,
    )


histories = st.lists(
    st.tuples(
        st.integers(0, 24),  # batch size
        st.floats(0.0, 1.0),  # share packed
        st.floats(0.0, 1.0),  # share of the rest undone early
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), histories)
def test_batch_confirm_round_matches_sequential_undo(seed, history):
    """A fixed count, the packed forgotten in order, the rest rolled back:
    at every round boundary the generator is, state for state, the frozen
    eager-publish generator after its ``confirm_round``."""
    one, eager = (
        cls(m=3, users_per_shard=6, rng=np.random.default_rng(seed))
        for cls in (WorkloadGenerator, EagerPublishWorkloadGenerator)
    )
    picker = np.random.default_rng(seed + 1)
    for count, packed_share, early_share in history:
        batch = one.generate_batch(count, 0.4, 0.25)
        assert [t.tx for t in eager.generate_batch(count, 0.4, 0.25)] == [
            t.tx for t in batch
        ]
        txids = [t.tx.txid for t in batch]
        packed = [t for t in txids if picker.random() < packed_share]
        rest = [t for t in txids if t not in set(packed)]
        # Some are undone before settlement, in any order (and the call may
        # name unknown or repeated txids).
        early = [t for t in rest if picker.random() < early_share]
        picker.shuffle(early)
        early += early[:2] + [b"\x00" * 32]
        one.forget_txids(packed)
        assert one.rollback_txids(early) == eager.rollback_txids(early)
        assert one.rollback_txids(rest) == eager.confirm_round(set(packed))
        assert generator_state(one) == generator_state(eager)
    assert [t.tx for t in one.generate_batch(12, 0.4, 0.25)] == [
        t.tx for t in eager.generate_batch(12, 0.4, 0.25)
    ]


def test_spent_history_holds_exactly_the_last_confirmed_spends():
    generator = WorkloadGenerator(
        m=2, users_per_shard=16, rng=np.random.default_rng(5), spent_retention=7
    )
    confirmed = []
    for _ in range(4):
        txids = [t.tx.txid for t in generator.generate_batch(10, 0.3, 0.2)]
        packed = [t for t in txids[::2] if t in generator._effects]
        confirmed += [generator._effects[t][1] for t in packed]
        generator.forget_txids(packed)
        generator.rollback_txids(txids)
        assert generator._spent == confirmed[-7:]
    assert len(confirmed) > 7


# -- (iii) the V-verdict memo ---------------------------------------------------
@pytest.fixture
def shard():
    state = ShardState(0, 1)
    genesis = make_coinbase([TxOutput(f"user-{i}", 100) for i in range(4)])
    apply_block([state], [genesis])
    spend = make_transfer((genesis.txid, 0), 100, "user-1", 10, "user-0", nonce=1)
    return state, genesis, spend


@pytest.fixture
def v_calls(monkeypatch):
    import repro.ledger.state as state_module

    calls = []
    real = state_module.validate_transaction

    def counting(tx, utxos):
        calls.append(tx)
        return real(tx, utxos)

    monkeypatch.setattr(state_module, "validate_transaction", counting)
    return calls


def test_verdict_is_computed_once_per_transaction_object(shard, v_calls):
    state, _genesis, spend = shard
    assert [state.validate(spend) for _ in range(24)] == [ValidationResult.VALID] * 24
    assert len(v_calls) == 1
    # An equal-but-distinct object is validated on its own.
    twin = Transaction(inputs=spend.inputs, outputs=spend.outputs, nonce=spend.nonce)
    assert twin == spend and twin is not spend
    assert state.validate(twin) is ValidationResult.VALID
    assert len(v_calls) == 2 and v_calls[1] is twin


def test_verdict_never_survives_a_mutation(shard, v_calls):
    state, genesis, spend = shard
    snapshot = state.utxos.snapshot()
    assert state.validate(spend) is ValidationResult.VALID
    apply_block([state], [spend])
    assert state.validate(spend) is ValidationResult.MISSING_INPUT
    state.utxos.restore(snapshot)  # what a checkpoint restore does
    assert state.validate(spend) is ValidationResult.VALID
    assert len(v_calls) == 3
    # Every mutator invalidates, whatever it touched.
    for mutate in (
        lambda: state.utxos.add((b"\x07" * 32, 0), TxOutput("user-2", 5)),
        lambda: state.utxos.spend((b"\x07" * 32, 0)),
        lambda: state.utxos.restore(state.utxos.snapshot()),
        lambda: state.utxos.apply_transaction(
            make_transfer((genesis.txid, 3), 100, "user-1", 1, "user-3", nonce=9)
        ),
    ):
        before = len(v_calls)
        mutate()
        assert state.validate(spend) is ValidationResult.VALID
        assert len(v_calls) == before + 1
    overspend = Transaction(
        inputs=(TxInput(genesis.txid, 1),), outputs=(TxOutput("user-0", 500),)
    )
    assert state.validate(overspend) is ValidationResult.OVERSPEND
    assert state.validate(overspend) is ValidationResult.OVERSPEND


def test_verdict_flips_across_a_checkpoint_restore(tmp_path):
    params = ProtocolParams(n=24, m=2, lam=2, referee_size=6, seed=4)
    ledger = CycLedger(params)
    ledger.run_round()
    path = str(tmp_path / "ledger.ckpt")
    save_checkpoint(ledger, path)
    packed = next(tx for tx in ledger.chain.blocks[-1].transactions if tx.inputs)
    genesis = CycLedger(params)
    home = next(s.shard for s in genesis.shard_states if s.validate(packed))
    state = ledger.shard_states[home]
    assert state.validate(packed) is ValidationResult.MISSING_INPUT  # spent
    # Rewind the shard to genesis and the same object is spendable again ...
    state.utxos.restore(genesis.shard_states[home].utxos.snapshot())
    assert state.validate(packed) is ValidationResult.VALID
    # ... and a ledger rebuilt from the checkpoint (genesis state, then
    # ``restore``) sees it spent.
    restored = load_checkpoint(path)
    assert (
        restored.shard_states[home].validate(packed)
        is ValidationResult.MISSING_INPUT
    )


# -- (iv) the VOTE identity memo -------------------------------------------------
@pytest.fixture
def vote_ctx():
    ctx = build_sandbox(committee_size=8, lam=2)
    state = ctx.shard_states[0]
    genesis = make_coinbase([TxOutput(f"user-{i}", 100) for i in range(8)])
    apply_block(ctx.shard_states, [genesis])
    txs = [
        make_transfer((genesis.txid, i), 100, "payee", 10, f"user-{i}", nonce=i)
        for i in range(3)
    ]
    run_committee_configuration(ctx)
    run_semi_commitment_exchange(ctx)
    return ctx, txs


def test_vote_statement_is_encoded_once_per_tuple_object(vote_ctx, monkeypatch):
    import repro.core.voting as voting

    ctx, txs = vote_ctx
    session = VoteRoundSession(ctx, ctx.committees[0], txs, "memo", input_side_votes, "intra")
    encoded = []
    real = voting.encode_statement
    monkeypatch.setattr(
        voting, "encode_statement", lambda s: encoded.append(s) or real(s)
    )

    def fresh(votes):
        return real(("VOTE", 1, 0, "memo", tuple(votes)))

    votes = (1, -1, 0)
    assert session._vote_enc(votes) == session._vote_enc(votes) == fresh(votes)
    assert len(encoded) == 1
    twin = tuple([1, -1, 0])  # equal, distinct
    assert twin is not votes
    assert session._vote_enc(twin) == fresh(votes)
    assert len(encoded) == 2
    # True == 1 and hashes alike, but encodes differently: no aliasing.
    alias = (True, -1, 0)
    assert alias == votes
    assert session._vote_enc(alias) == fresh(alias) != fresh(votes)
    # Mutable carriers are never memoised.
    as_list = [1, -1, 0]
    assert session._vote_enc(as_list) == fresh(votes)
    as_list[0] = -1
    assert session._vote_enc(as_list) == fresh((-1, -1, 0))
    # The memo is bounded: past the cap every call encodes.
    keep = [tuple([k, 0, 0]) for k in range(40)]
    for vote in keep:
        session._vote_enc(vote)
    assert len(session._enc_vote) <= 2 * 8
    count = len(encoded)
    assert session._vote_enc(keep[-1]) == fresh(keep[-1])
    assert len(encoded) == count + 1


def test_memoised_vote_check_still_rejects_forgeries(vote_ctx):
    ctx, txs = vote_ctx
    committee = ctx.committees[0]
    ctx.nodes[3].online = False  # member 3 itself stays silent
    session = VoteRoundSession(ctx, committee, txs, "forge", input_side_votes, "intra")
    session.start()
    courier, victim = ctx.nodes[4], ctx.nodes[3]
    row = committee.members.index(3)
    yes, no = (1, 1, 1), (-1, -1, -1)

    def statement(votes):
        return ("VOTE", 1, 0, "forge", votes)

    # wrong key: member 4 signs in member 3's name
    courier.send(0, "VOTE:forge", (3, no, sign(courier.keypair, statement(no))))
    # right key, signature over a different vector (both already memoised)
    sig_yes = sign(victim.keypair, statement(yes))
    session._vote_enc(yes), session._vote_enc(no)
    courier.send(0, "VOTE:forge", (3, no, sig_yes))
    ctx.net.run(until=ctx.net.now + 3 * ctx.params.net.delta)
    assert 3 not in session._votes and session.result.replies == 7
    # the genuine article is accepted through the same path
    courier.send(0, "VOTE:forge", (3, yes, sig_yes))
    ctx.net.run()
    result = session.finish()
    assert result.replies == 8
    assert np.all(result.matrix[row] == 1)


# -- (v) Transaction.wire_size ----------------------------------------------------
@given(
    st.lists(st.tuples(st.binary(min_size=0, max_size=40), st.integers(0, 9)), max_size=4),
    st.lists(st.tuples(st.text(max_size=12), st.integers(-5, 10**9)), max_size=4),
    st.integers(0, 2**40),
)
def test_transaction_wire_size_is_the_recursive_dataclass_size(inputs, outputs, nonce):
    tx = Transaction(
        inputs=tuple(TxInput(*i) for i in inputs),
        outputs=tuple(TxOutput(*o) for o in outputs),
        nonce=nonce,
    )
    expected = payload_size([tx.inputs, tx.outputs, tx.nonce])
    assert fields_size(tx) == expected
    assert payload_size(tx) == tx.wire_size == expected
    assert payload_size([tx, (tx, 1)]) == 2 + expected + (2 + expected + 8)
    tx.txid  # the txid cache is not a field: the size does not move
    assert payload_size(tx) == expected


def test_cached_sizes_are_derived_state_across_a_checkpoint(tmp_path):
    params = ProtocolParams(n=24, m=2, lam=2, referee_size=6, seed=4)
    ledger = CycLedger(params)
    ledger.run(2)
    path = str(tmp_path / "ledger.ckpt")
    save_checkpoint(ledger, path)
    restored = load_checkpoint(path)
    for block, twin in zip(ledger.chain.blocks, restored.chain.blocks):
        for tx, tx_twin in zip(block.transactions, twin.transactions):
            assert tx_twin == tx and tx_twin.txid == tx.txid
            assert payload_size(tx_twin) == payload_size(tx) == fields_size(tx)
    restored.run(2)
    ledger.run(2)
    assert restored.chain.head.hash == ledger.chain.head.hash


# -- (vi) the UTXO_FINAL listing ---------------------------------------------------
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


listing_steps = st.lists(
    st.one_of(
        st.tuples(  # add: txid of any length (sorts by hex), index, owner, amount
            st.just("add"),
            st.binary(max_size=4),
            st.integers(0, 3),
            st.text(max_size=6),
            st.integers(0, 10**12),
        ),
        st.tuples(st.just("spend"), st.integers(0, 99)),
        st.tuples(st.sampled_from(["restore", "compact", "snapshot", "list"])),
    ),
    max_size=30,
)


@settings(max_examples=120, deadline=None)
@given(listing_steps, st.booleans())
def test_utxo_listing_is_the_sorted_tuple_through_every_mutation(steps, every_step):
    state = ShardState(0, 1)
    saved = state.utxos.snapshot()
    assert_listing_is_its_tuple(state)  # the empty listing
    for step in steps:
        if step[0] == "add":
            _, txid, index, owner, amount = step
            if (txid, index) in state.utxos:
                # same outpoint, another output object: not the cached entry
                state.utxos.spend((txid, index))
            state.utxos.add((txid, index), TxOutput(owner, amount))
        elif step[0] == "spend" and len(state.utxos):
            state.utxos.spend(list(state.utxos)[step[1] % len(state.utxos)])
        elif step[0] == "restore":
            state.utxos.restore(saved)
        elif step[0] == "compact":
            state.utxos.compact()
        elif step[0] == "snapshot":
            saved = state.utxos.snapshot()
        else:
            assert_listing_is_its_tuple(state)  # after several mutations
        if every_step:
            assert_listing_is_its_tuple(state)
    assert_listing_is_its_tuple(state)


def test_utxo_listing_encodes_only_what_the_block_created(shard, monkeypatch):
    import repro.ledger.state as state_module

    state, genesis, spend = shard
    encoded = []
    real = state_module.canonical_bytes
    monkeypatch.setattr(
        state_module, "canonical_bytes", lambda item: encoded.append(item) or real(item)
    )
    first = state.digest_items()
    assert len(encoded) == len(genesis.outputs)
    assert state.digest_items() == first and len(encoded) == len(genesis.outputs)
    del encoded[:]
    apply_block([state], [spend])
    assert_listing_is_its_tuple(state)
    assert sorted(item[:2] for item in encoded) == [
        (spend.txid.hex(), 0),
        (spend.txid.hex(), 1),
    ]
    # An equal output under the same outpoint is another object: re-encoded.
    del encoded[:]
    state.utxos.spend((spend.txid, 1))
    state.utxos.add((spend.txid, 1), TxOutput(*astuple(spend.outputs[1])))
    assert_listing_is_its_tuple(state)
    assert [item[:2] for item in encoded] == [(spend.txid.hex(), 1)]


def test_utxo_listing_cache_is_derived_state_across_a_checkpoint(tmp_path):
    params = ProtocolParams(n=24, m=2, lam=2, referee_size=6, seed=4)
    ledger = CycLedger(params)
    ledger.run(2)
    assert all(state._listing[0] for state in ledger.shard_states)
    path = str(tmp_path / "ledger.ckpt")
    save_checkpoint(ledger, path)
    restored = load_checkpoint(path)
    for state, twin in zip(ledger.shard_states, restored.shard_states):
        assert twin._listing[0] == {}  # not in the checkpoint: rebuilt on demand
        assert_listing_is_its_tuple(twin)
        assert twin.digest_items() == state.digest_items()
        assert_listing_is_its_tuple(state)
