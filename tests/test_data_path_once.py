"""The per-transaction data path derives each fact once — and only ever the
same fact the one-at-a-time code derived.

Each section pins one cache or direct form to its reference: the
vote-matrix value to the tuple-of-rows encoding, publish-at-pack settlement
to the eager publish and its sequential ``list.remove`` undo, the V-verdict
row to plain ``validate_transaction``, the VOTE statement to the generic
encoder, ``Transaction.wire_size`` to the recursive dataclass sizer, the
UTXO listing to the freshly sorted tuple of plain tuples, the txid and the
VOTE statement and size to the element walks of ``tests/reference_impls.py``,
and the honest vote fill to the budgeted row of ``tests/decision_reference.py``.
"""

import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from decision_reference import KINDS, budgeted_row, well_formed
from listing_machine import (
    ADD,
    BLOCK,
    READD,
    SPEND,
    WHOLE,
    Name,
    assert_listing_is_its_tuple,
    run_listing_machine,
)
from reference_impls import (
    EagerPublishWorkloadGenerator,
    element_walk_txid,
    element_walk_vote_message_size,
    element_walk_vote_statement,
    naive_payload_size,
)
from tx_builders import make_transfer

from repro import CycLedger, ProtocolParams, load_checkpoint, save_checkpoint
from repro.core.committee import run_committee_configuration
from repro.core.consensus import InsideConsensus
from repro.core.sandbox import build_sandbox
from repro.core.semicommit import run_semi_commitment_exchange
from repro.core.structures import VoteMatrix
from repro.core.voting import VoteRoundSession, input_side_votes
from repro.crypto.hashing import H, canonical_bytes, int8_seq_bytes
from repro.crypto.signatures import Signature, encode_statement, sign
from repro.ledger.state import ShardState, apply_block
from repro.ledger.transaction import (
    ShardMap,
    Transaction,
    make_coinbase,
)
from repro.ledger.utxo import UTXOSet, ValidationResult, validate_transaction
from repro.ledger.workload import TaggedTx, WorkloadGenerator
from repro.net.message import fields_size, payload_size, vote_message_size
from repro.nodes.behaviors import Behavior, ContraryVoter, LazyVoter


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
        generator.draws.state,
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
        packed = [t.tx for t in batch if picker.random() < packed_share]
        packed_txids = {tx.txid for tx in packed}
        rest = [t.tx.txid for t in batch if t.tx.txid not in packed_txids]
        # Some are undone before settlement, in any order (and the call may
        # name unknown or repeated txids).
        early = [t for t in rest if picker.random() < early_share]
        picker.shuffle(early)
        early += early[:2] + [b"\x00" * 32]
        one.forget_txids(packed)
        assert one.rollback_txids(early) == eager.rollback_txids(early)
        assert one.rollback_txids(rest) == eager.confirm_round(packed_txids)
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
        txs = [t.tx for t in generator.generate_batch(10, 0.3, 0.2)]
        packed = [tx for tx in txs[::2] if tx.txid in generator._effects]
        confirmed += [generator._effects[tx.txid] for tx in packed]
        generator.forget_txids(packed)
        generator.rollback_txids([tx.txid for tx in txs])
        assert generator._spent == confirmed[-7:]
    assert len(confirmed) > 7


# -- (iii) the V-verdict row ----------------------------------------------------
@pytest.fixture
def shard():
    state, pool = ShardState(0, 1), UTXOSet()
    genesis = make_coinbase([(f"user-{i}", 100) for i in range(4)])
    apply_block([state], [genesis], ShardMap(1), pool)
    spend = make_transfer((genesis.txid, 0), 100, "user-1", 10, "user-0", nonce=1)
    return state, pool, genesis, spend


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
    """Members asking the view's verdict row for one TXList object run V
    once per transaction; an equal-but-distinct transaction, in a list of
    its own, is validated on its own."""
    state, _pool, _genesis, spend = shard
    txs = [spend]
    assert [state.verdict_row(txs, 1).tolist() for _ in range(24)] == [[1]] * 24
    assert len(v_calls) == 1
    twin = Transaction(inputs=spend.inputs, outputs=spend.outputs, nonce=spend.nonce)
    assert twin == spend and twin is not spend
    assert state.verdict_row([twin], 1).tolist() == [1]
    assert len(v_calls) == 2 and v_calls[1] is twin


def test_verdict_never_survives_a_mutation(shard, v_calls):
    state, pool, genesis, spend = shard
    txs = [spend]

    def verdict():
        return state.verdict_row(txs, 1).tolist()

    snapshot = state.utxos.snapshot()
    assert verdict() == [1]
    apply_block([state], [spend], ShardMap(1), pool)
    assert verdict() == [-1]
    assert state.validate(spend) is ValidationResult.MISSING_INPUT
    state.utxos.restore(snapshot)  # what a checkpoint restore does
    assert verdict() == [1]
    assert len(v_calls) == 4
    # Every mutator invalidates, whatever it touched.
    for mutate in (
        lambda: state.utxos.add((b"\x07" * 32, 0), ("user-2", 5)),
        lambda: state.utxos.spend((b"\x07" * 32, 0)),
        lambda: state.utxos.restore(state.utxos.snapshot()),
        lambda: apply_block(
            [state],
            [make_transfer((genesis.txid, 3), 100, "user-1", 1, "user-3", nonce=9)],
            ShardMap(1),
            pool,
        ),
    ):
        before = len(v_calls)
        mutate()
        assert verdict() == [1]
        assert len(v_calls) == before + 1
    overspend = Transaction(
        inputs=((genesis.txid, 1),), outputs=(("user-0", 500),)
    )
    assert state.validate(overspend) is ValidationResult.OVERSPEND
    assert state.verdict_row([overspend], 1).tolist() == [-1]


def test_a_failed_spend_leaves_the_version_and_the_verdicts(shard, v_calls):
    state, _pool, genesis, spend = shard
    txs = [spend]
    assert state.verdict_row(txs, 1).tolist() == [1]
    version = state.utxos.version
    with pytest.raises(KeyError, match="not unspent"):
        state.utxos.spend((b"\x07" * 32, 0))
    assert state.utxos.version == version
    assert state.verdict_row(txs, 1).tolist() == [1] and len(v_calls) == 1
    state.utxos.spend((genesis.txid, 3))
    assert state.utxos.version == version + 1


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


# -- (iv) the VOTE statement -------------------------------------------------------
def vote_world(behaviors=None, capacities=None, spends=3):
    """A configured committee of 8 and ``spends`` transfers of genesis coins
    (coin 7 is spent twice when asked for more than 7)."""
    ctx = build_sandbox(committee_size=8, lam=2, behaviors=behaviors, capacities=capacities)
    genesis = make_coinbase([(f"user-{i}", 100) for i in range(8)])
    apply_block(ctx.shard_states, [genesis], ctx.shard_of, ctx.global_utxos)
    txs = [
        make_transfer((genesis.txid, min(i, 7)), 100, "payee", 10, f"user-{i}", nonce=i)
        for i in range(spends)
    ]
    run_committee_configuration(ctx)
    run_semi_commitment_exchange(ctx)
    return ctx, txs


@pytest.fixture
def vote_ctx():
    return vote_world()


def test_vote_statement_is_encoded_once_per_tuple_object(vote_ctx, monkeypatch):
    """Each VOTE encode goes one way: a vector of int8-range ints never
    reaches the generic ``encode_statement`` (its head is the session's, its
    votes one table lookup each), anything else reaches it once.  (The
    identity memo this test was written for is gone: with the direct
    encoding it did not pay for itself, see docs/architecture.md.)"""
    import repro.core.voting as voting

    ctx, txs = vote_ctx
    session = VoteRoundSession(ctx, ctx.committees[0], txs, "memo", input_side_votes, "intra")
    encoded = []
    real = voting.encode_statement
    monkeypatch.setattr(
        voting, "encode_statement", lambda s: encoded.append(s) or real(s)
    )

    def enc(votes):
        return session._vote_enc(votes, int8_seq_bytes(votes))

    votes = (1, -1, 0)
    walked = element_walk_vote_statement(1, 0, "memo", votes)
    assert enc(votes) == enc(tuple([1, -1, 0])) == enc([1, -1, 0]) == walked
    assert encoded == []
    # True == 1 and hashes alike, but encodes differently: no aliasing.
    alias = (True, -1, 0)
    assert enc(alias) == element_walk_vote_statement(1, 0, "memo", alias) != walked
    assert len(encoded) == 1
    # A whole session: the TX_LIST statement is encoded once, no VOTE is.
    del encoded[:]
    session.start()
    ctx.net.run()
    assert session.finish().replies == ctx.committees[0].size
    assert [statement[0] for statement in encoded] == ["TX_LIST"]


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
    # right key, signature over a different vector
    sig_yes = sign(victim.keypair, statement(yes))
    courier.send(0, "VOTE:forge", (3, no, sig_yes))
    ctx.net.run(until=ctx.net.now + 3 * ctx.params.net.delta)
    assert 3 not in session._votes and session.result.replies == 7
    # the genuine article is accepted through the same path
    courier.send(0, "VOTE:forge", (3, yes, sig_yes))
    ctx.net.run()
    result = session.finish()
    assert result.replies == 8
    assert np.all(result.matrix[row] == 1)


voters = st.sampled_from([Behavior(), LazyVoter(), ContraryVoter()])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(voters, st.integers(0, 4)), min_size=8, max_size=8),
    st.integers(0, 9),
)
def test_vote_vectors_are_encoded_once_per_distinct_vector(members, spends):
    """Members with equal rows send one tuple, signed over one encoding;
    the leader files one read-only array per tuple it is handed.  Every
    entry of both memos is the element walk of its votes, and every row of
    the tallied matrix is the member's own vote."""
    behaviors = {mid: behavior for mid, (behavior, _c) in enumerate(members)}
    capacities = [capacity for _behavior, capacity in members]
    ctx, txs = vote_world(behaviors, capacities, spends)
    committee = ctx.committees[0]
    sent = []

    def observe(probe):
        if probe.tag.startswith("VOTE:"):
            sent.append(probe.payload[1])
        return False

    ctx.net.drop_filter = observe
    session = VoteRoundSession(ctx, committee, txs, "vec", input_side_votes, "intra")
    session.start()
    ctx.net.run()
    result = session.finish()
    assert result.replies == committee.size
    plain = passes(partial(validate_transaction, utxos=ctx.shard_states[0].utxos))
    for row, (behavior, capacity) in enumerate(members):
        want = budgeted(txs, capacity, plain, KINDS[behavior.name].sign)
        assert result.matrix[row].tolist() == want
    # one tuple object per distinct vector, its key its int8 bytes
    assert len({id(votes) for votes in sent}) == len(set(sent)) == len(session._vectors)
    for key, (votes, enc, size) in session._vectors.items():
        assert np.asarray(votes, dtype=np.int8).tobytes() == key
        assert enc == element_walk_vote_statement(1, 0, "vec", votes)
        assert int8_seq_bytes(votes) is not None and size == vote_message_size(len(votes))
    assert len(session._received) == len(session._vectors)
    for key, (votes, enc, array) in session._received.items():
        assert id(votes) == key and enc == element_walk_vote_statement(1, 0, "vec", votes)
        assert array.tolist() == list(votes) and not array.flags.writeable


def test_leader_re_encodes_an_equal_but_distinct_vote_tuple(vote_ctx):
    ctx, txs = vote_ctx
    committee = ctx.committees[0]
    ctx.nodes[3].online = ctx.nodes[4].online = False  # they stay silent
    session = VoteRoundSession(ctx, committee, txs, "twin", input_side_votes, "intra")
    session.start()
    ctx.net.run(until=ctx.net.now + 3 * ctx.params.net.delta)
    votes = next(votes for votes, _enc, _array in session._received.values())
    twin = tuple(list(votes))
    assert twin == votes and twin is not votes
    courier = ctx.nodes[5]
    for mid, carrier in ((3, votes), (4, twin)):
        statement = ("VOTE", 1, 0, "twin", carrier)
        sig = sign(ctx.nodes[mid].keypair, statement)
        # a forgery over the very tuple a valid vote carried is still checked
        courier.send(0, "VOTE:twin", (mid, carrier, sign(courier.keypair, statement)))
        courier.send(0, "VOTE:twin", (mid, carrier, sig))
    ctx.net.run()
    result = session.finish()
    assert result.replies == committee.size
    assert session._votes[3] is session._votes[5]  # one tuple, one array
    assert session._votes[4] is not session._votes[3]
    assert session._received[id(twin)][0] is twin


# -- (v) Transaction.wire_size ----------------------------------------------------
class Blob(bytes):
    """A ``bytes`` subclass, likewise."""


ints_like = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.integers(-(2**31), 2**31).map(np.int64),
)
tx_inputs = st.lists(
    st.tuples(st.one_of(st.binary(max_size=40), st.binary(max_size=8).map(Blob)), ints_like),
    max_size=4,
)
tx_outputs = st.lists(
    st.tuples(
        st.one_of(st.text(max_size=12), st.text(max_size=6).map(Name)),
        st.one_of(ints_like, st.floats(allow_nan=False)),
    ),
    max_size=4,
)
SIG = Signature(pk="pk-0", tag=b"\x00" * 32)


@given(tx_inputs, tx_outputs, ints_like)
def test_transaction_wire_size_is_the_recursive_dataclass_size(inputs, outputs, nonce):
    """``wire_size`` is the recursive dataclass size, formatted or (numpy
    ints, bools, floats, subclasses) generic, and so is the size of every
    payload that carries the transaction: a TX_LIST ``(txs, SIG)`` and a
    ``TaggedTx``."""
    tx = Transaction(inputs=tuple(inputs), outputs=tuple(outputs), nonce=nonce)
    expected = naive_payload_size(tx)
    assert fields_size(tx) == expected  # the txid and size slots are not fields
    assert payload_size(tx) == tx.wire_size == expected
    for payload in ([tx, (tx, 1)], ([tx, tx], SIG), TaggedTx(tx, 1, True, False, "overspend")):
        assert payload_size(payload) == naive_payload_size(payload)


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
@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.lists(st.one_of(BLOCK, ADD, SPEND, READD, WHOLE), max_size=20),
    st.booleans(),
)
def test_merged_listing_is_the_sorted_tuple(m, steps, every_step):
    """Through blocks and every other edit of the sets, each listing is the
    freshly sorted tuple: ``digest_items`` merges what ``apply_block``
    touched, rescans after anything else moved a set, and keeps the entries
    whose output object stayed."""
    run_listing_machine(m, steps, every_step)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(ADD, SPEND, WHOLE), max_size=30), st.booleans())
def test_utxo_listing_is_the_sorted_tuple_through_every_mutation(steps, every_step):
    """One shard's set moved by no block, only by adds (an outpoint held
    before is spent first: another output object), spends, restores,
    compactions and checkpoints: every listing is the sorted tuple."""
    run_listing_machine(1, steps, every_step)


def test_utxo_listing_encodes_only_what_the_block_created(shard, monkeypatch):
    import repro.ledger.state as state_module

    state, pool, genesis, spend = shard
    encoded = []
    real = state_module._listing_entry
    monkeypatch.setattr(
        state_module,
        "_listing_entry",
        lambda op, output: encoded.append(op) or real(op, output),
    )
    first = state.digest_items()
    assert len(encoded) == len(genesis.outputs)
    assert state.digest_items() == first and len(encoded) == len(genesis.outputs)
    del encoded[:]
    apply_block([state], [spend], ShardMap(1), pool)
    assert_listing_is_its_tuple(state)
    assert sorted(encoded) == [(spend.txid, 0), (spend.txid, 1)]
    # An equal output under the same outpoint is another object: re-encoded.
    del encoded[:]
    state.utxos.spend((spend.txid, 1))
    state.utxos.add((spend.txid, 1), (*spend.outputs[1],))
    assert_listing_is_its_tuple(state)
    assert encoded == [(spend.txid, 1)]


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


# -- (vii) the direct forms against their element walks ---------------------------
@given(tx_inputs, tx_outputs, ints_like)
@example([], [("user-0", 1_000)], 0)  # a coinbase
@example([(b"\x01" * 32, 0), (b"\x02" * 32, 7)], [("é", 5)], 3)
@example([(b"\x01" * 32, True)], [("a", 1)], 1)  # index True != 1
@example([(b"\x01" * 32, 1)], [("a", 1.0)], 1)  # amount 1.0 != 1
def test_txid_is_the_element_walk(inputs, outputs, nonce):
    tx = Transaction(inputs=tuple(inputs), outputs=tuple(outputs), nonce=nonce)
    assert tx.txid == element_walk_txid(tx)


def test_generated_txids_are_the_element_walk():
    generator = WorkloadGenerator(m=3, users_per_shard=8, rng=np.random.default_rng(2))
    batch = [t.tx for t in generator.generate_batch(60, 0.4, 0.3)]
    assert {len(tx.inputs) for tx in [generator.genesis_tx, *batch]} == {0, 1}
    for tx in [generator.genesis_tx, *batch]:
        assert tx.txid == element_walk_txid(tx)


vote_elements = st.one_of(
    st.integers(-1, 1),
    st.integers(-130, 130),  # int8's edges and just past them
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.integers(-128, 127).map(np.int8),
    st.floats(-2, 2),
)
vote_vectors = st.tuples(
    st.one_of(st.lists(st.integers(-1, 1), max_size=300), st.lists(vote_elements, max_size=12)),
    st.booleans(),
).map(lambda drawn: tuple(drawn[0]) if drawn[1] else drawn[0])


def is_int8_vector(votes):
    return all(type(v) is int and -128 <= v <= 127 for v in votes)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vote_vectors)
@example(())
@example((True, -1, 0))  # == (1, -1, 0), encodes otherwise
@example([1, -1, 0])
@example((127, -128, 128))
@example((-129,))
@example((np.int8(1), 0))
def test_vote_statement_is_the_element_walk(vote_ctx, votes):
    ctx, txs = vote_ctx
    session = VoteRoundSession(ctx, ctx.committees[0], txs, "walk", input_side_votes, "intra")
    vector = int8_seq_bytes(votes)
    assert (vector is not None) == is_int8_vector(votes)
    if vector is not None:
        assert vector == canonical_bytes(tuple(votes)) == canonical_bytes(list(votes))
    assert session._vote_enc(votes, vector) == element_walk_vote_statement(
        1, 0, "walk", votes
    )


@pytest.mark.parametrize("sn", ["intra:0", 7, (("INTER", 0, 1), ("x", (2, b"y")))])
def test_echo_statement_is_the_generic_encoding(sn):
    """An ECHO statement is the session's head ``("ECHO", r, sn)`` plus the
    digest and sender: the bytes ``encode_statement`` gives the whole tuple,
    for any ``sn`` and for a numpy-int sender id."""
    ctx = build_sandbox(committee_size=4, lam=2)
    members = ctx.committees[0].members
    session = InsideConsensus(ctx, members, members[0], sn, ("payload",), "echo")
    digest = H("payload")
    for sender in (members[1], np.int64(members[2]), np.int32(members[3])):
        assert session._echo_enc(digest, sender) == encode_statement(
            ("ECHO", ctx.round_number, sn, digest, sender)
        )


@given(st.integers(0, 10**6), st.lists(st.integers(-(2**70), 2**70), max_size=300))
@example(0, [])
def test_vote_message_size_is_the_element_walk(mid, votes):
    sig = Signature(pk="pk-0", tag=b"\x00" * 32)
    for carrier in (tuple(votes), list(votes)):
        assert vote_message_size(len(votes)) == element_walk_vote_message_size(
            mid, carrier, sig
        )
    # A bool is one byte: the closed form is only for exact ints.
    assert element_walk_vote_message_size(mid, (True, *votes), sig) == (
        vote_message_size(len(votes) + 1) - 7
    )


def test_every_vote_message_is_sized_as_its_payload(vote_ctx):
    ctx, txs = vote_ctx
    seen = []

    def observe(probe):
        if probe.tag.startswith("VOTE:"):
            seen.append((probe.size, element_walk_vote_message_size(*probe.payload)))
        return False

    ctx.net.drop_filter = observe
    session = VoteRoundSession(ctx, ctx.committees[0], txs, "sized", input_side_votes, "intra")
    session.start()
    ctx.net.run()
    result = session.finish()
    assert result.replies == ctx.committees[0].size
    assert len(seen) == ctx.committees[0].size - 1  # the leader votes in place
    assert all(size == walked == vote_message_size(len(txs)) for size, walked in seen)


class Capacity:
    """The parts of a node the vote hooks use: its budget, and the shard
    view whose output rows ``vote_on_outputs`` reads."""

    def __init__(self, capacity, shard_state=None):
        self.left = capacity
        self.shard_state = ShardState(0, 1) if shard_state is None else shard_state

    def take_budget(self, want):
        granted = max(0, min(want, self.left))
        self.left -= granted
        return granted


def budgeted(txs, capacity, judge, sign=1):
    """The decision reference's VList row for a member with ``capacity``
    left: ``judge`` on what the budget covers, then Unknown."""
    return list(budgeted_row(txs, max(0, min(capacity, len(txs))), judge, sign))


def passes(validate):
    """A judge from a V: Yes exactly when ``validate`` finds the
    transaction valid."""
    return lambda tx: validate(tx) is ValidationResult.VALID


class Verdicts(ShardState):
    """A shard view whose V returns a drawn verdict and logs every call (its
    verdict row is the real one, filled through this ``validate``)."""

    def __init__(self, verdicts):
        super().__init__(0, 1)
        self.verdicts, self.calls = verdicts, []

    def validate(self, tx):
        self.calls.append(tx)
        return self.verdicts[tx.nonce]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(ValidationResult)),
            st.lists(st.integers(-2, 3), max_size=3),  # empty outputs too
        ),
        max_size=24,
    ),
    st.integers(-1, 30),
    st.booleans(),
)
def test_honest_votes_are_the_per_item_fill(drawn, capacity, as_tuple):
    txs = [
        Transaction(inputs=(), outputs=tuple(("a", v) for v in amounts), nonce=i)
        for i, (_verdict, amounts) in enumerate(drawn)
    ]
    txs = tuple(txs) if as_tuple else txs
    verdicts = [verdict for verdict, _amounts in drawn]
    direct, walked = Verdicts(verdicts), Verdicts(verdicts)
    fill = Behavior().vote(Capacity(capacity), txs, direct, None)
    assert fill.dtype == np.int8
    assert fill.tolist() == budgeted(txs, capacity, passes(walked.validate))
    assert direct.calls == walked.calls  # the same txs judged, in order
    fill = Behavior().vote_on_outputs(Capacity(capacity), txs, None)
    assert fill.dtype == np.int8 and fill.tolist() == budgeted(txs, capacity, well_formed)


class LoggedView(ShardState):
    """A real shard view that logs every transaction its rows judge."""

    def __init__(self):
        super().__init__(0, 1)
        self.calls = []

    def validate(self, tx):
        self.calls.append(tx)
        return super().validate(tx)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(  # (first coin, second coin or none, output amount); coins 4, 5 do not exist
        st.tuples(st.integers(0, 5), st.integers(-1, 5), st.integers(-1, 220)),
        max_size=14,
    ),
    st.lists(  # one per member: (capacity, change the view before it votes)
        st.tuples(st.integers(-1, 16), st.booleans()), min_size=1, max_size=6
    ),
    st.booleans(),
)
def test_members_share_one_verdict_row(specs, members, as_tuple):
    """Several members vote on one TXList object against one view: each vote
    is the per-item fill of plain V, even when the view changes between two
    members, and the view judges each transaction once per version, in the
    order of the longest walk asked so far."""
    state = LoggedView()
    genesis = make_coinbase([(f"user-{i}", 100) for i in range(4)])
    apply_block([state], [genesis], ShardMap(1), UTXOSet())
    txs = [
        Transaction(
            inputs=((genesis.txid, a),) + (() if b < 0 else ((genesis.txid, b),)),
            outputs=(("payee", amount),),
            nonce=i,
        )
        for i, (a, b, amount) in enumerate(specs)
    ]
    txs = tuple(txs) if as_tuple else txs
    expected_calls, walked = [], 0
    for k, (capacity, change) in enumerate(members):
        if change:  # spend one genesis coin, or put it back
            coin = (genesis.txid, k % 4)
            if coin in state.utxos:
                state.utxos.spend(coin)
            else:
                state.utxos.add(coin, (f"user-{k % 4}", 100))
            walked = 0
        fill = Behavior().vote(Capacity(capacity), txs, state, None)
        plain = passes(partial(validate_transaction, utxos=state.utxos))
        assert fill.dtype == np.int8 and fill.tolist() == budgeted(txs, capacity, plain)
        budget = max(0, min(capacity, len(txs)))
        expected_calls += txs[walked:budget]
        walked = max(walked, budget)
        assert state.calls == expected_calls
        fill = Behavior().vote_on_outputs(Capacity(capacity, state), txs, None)
        assert fill.dtype == np.int8 and fill.tolist() == budgeted(txs, capacity, well_formed)
    # An equal-but-distinct TXList is a row of its own.
    twin = list(txs)
    state.calls.clear()
    Behavior().vote(Capacity(len(txs)), twin, state, None)
    assert len(state.calls) == len(txs)
