"""Property-based tests (hypothesis) on the core data structures and math."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import feldman_check

from repro.analysis.security import (
    committee_failure_exact,
    committee_failure_kl_bound,
    union_bound,
)
from repro.core.reputation import cosine_scores, distribute_rewards, g
from repro.crypto.field import FIELD
from repro.ledger.workload import TxMempool, WorkloadGenerator
from repro.crypto.hashing import H, canonical_bytes
from repro.crypto.pvss import deal, reconstruct
from repro.ledger.state import ShardState, apply_block
from repro.ledger.transaction import ShardMap, Transaction
from repro.ledger.utxo import UTXOSet, ValidationResult, validate_transaction
from repro.net.message import payload_size

# -- hashing -----------------------------------------------------------------

encodable = st.recursive(
    st.one_of(
        st.integers(),
        st.text(max_size=20),
        st.binary(max_size=20),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.tuples(children, children),
    max_leaves=8,
)


@given(encodable, encodable)
@settings(max_examples=200, deadline=None)
def test_canonical_encoding_injective_on_samples(a, b):
    # Python's == conflates 0/False and 1/True; the encoding deliberately
    # distinguishes them, so the oracle must be type-aware.
    same = a == b and repr(a) == repr(b)
    if same:
        assert H(a) == H(b)
    else:
        assert canonical_bytes(a) != canonical_bytes(b)


@given(encodable)
@settings(max_examples=100, deadline=None)
def test_payload_size_positive(obj):
    assert payload_size(obj) >= 0


# -- field / PVSS ----------------------------------------------------------------


@given(st.integers(min_value=0, max_value=FIELD.p - 1))
@settings(max_examples=100, deadline=None)
def test_field_inverse(a):
    if a != 0:
        assert FIELD.mul(a, FIELD.inv(a)) == 1


@given(
    st.integers(min_value=0, max_value=FIELD.p - 1),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_pvss_roundtrip(secret, threshold, extra, pyrandom):
    n = threshold + extra
    rng = np.random.default_rng(pyrandom.randint(0, 2**31))
    dealing, secrets = deal(secret, n=n, threshold=threshold, rng=rng)
    # every share passes Feldman verification
    for i, share in enumerate(secrets.shares, start=1):
        assert feldman_check(dealing, i, share)
    # any threshold-subset reconstructs
    indices = list(range(1, n + 1))
    pyrandom.shuffle(indices)
    points = [(i, secrets.shares[i - 1]) for i in indices[:threshold]]
    assert reconstruct(points, threshold) == secret % FIELD.p


# -- scoring / rewards ---------------------------------------------------------


votes_matrix = st.integers(min_value=1, max_value=12).flatmap(
    lambda d: st.integers(min_value=1, max_value=10).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=d, max_size=d),
            min_size=c,
            max_size=c,
        ).map(lambda rows: (np.array(rows, dtype=np.int8), d))
    )
)


@given(votes_matrix)
@settings(max_examples=150, deadline=None)
def test_cosine_scores_bounded_and_extremes(matrix_d):
    matrix, d = matrix_d
    decision = np.where((matrix == 1).sum(axis=0) > matrix.shape[0] / 2, 1, -1)
    scores = cosine_scores(matrix, decision)
    assert np.all(scores >= -1.0 - 1e-12) and np.all(scores <= 1.0 + 1e-12)
    # a row equal to the decision scores (numerically) 1
    perfect = cosine_scores(decision[None, :].astype(np.int8), decision)
    if np.any(decision):
        assert abs(perfect[0] - 1.0) < 1e-12
    else:
        assert perfect[0] == 0.0


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=6),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_reward_conservation_and_nonnegativity(reps, fees):
    rewards = distribute_rewards(fees, reps)
    assert abs(sum(rewards.values()) - fees) < 1e-6 * max(fees, 1.0)
    assert all(r >= 0 for r in rewards.values())


@given(st.floats(min_value=-50, max_value=50, allow_nan=False),
       st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_g_monotone_property(x, y):
    if x < y:
        assert g(x) <= g(y) + 1e-12
    assert g(x) > 0


# -- UTXO invariants --------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),  # which utxo to spend
            st.integers(min_value=1, max_value=200),  # amount to send
        ),
        max_size=15,
    )
)
@settings(max_examples=100, deadline=None)
def test_utxo_value_never_increases(spends):
    states, utxos, shard_of = [ShardState(0, 1)], UTXOSet(), ShardMap(1)
    base = Transaction(
        inputs=(), outputs=tuple((f"u{i}", 100) for i in range(10))
    )
    apply_block(states, [base], shard_of, utxos)
    total = utxos.total_value()
    nonce = 0
    for which, amount in spends:
        ops = sorted(utxos, key=lambda op: (op[0], op[1]))
        if not ops:
            break
        op = ops[which % len(ops)]
        _owner, available = utxos.get(op)
        nonce += 1
        tx = Transaction(
            inputs=(op,),
            outputs=(("payee", amount),),
            nonce=nonce,
        )
        result = validate_transaction(tx, utxos)
        if amount > available:
            assert result is ValidationResult.OVERSPEND
        else:
            assert result is ValidationResult.VALID
            fee = available - amount
            assert apply_block(states, [tx], shard_of, utxos) == (1, 1, fee)
            new_total = utxos.total_value()
            assert new_total == total - fee
            total = new_total


# -- security bounds ---------------------------------------------------------------


@given(
    st.integers(min_value=50, max_value=500),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_exact_tail_bounded_by_kl(n, data):
    t = data.draw(st.integers(min_value=0, max_value=n // 3 - 1 if n >= 3 else 0))
    c = data.draw(st.integers(min_value=6, max_value=min(n, 200)))
    exact = committee_failure_exact(n, t, c)
    if t > 0:
        bound = committee_failure_kl_bound(n, t, c)
        assert exact <= bound * (1 + 1e-9) + 1e-300
    assert 0.0 <= exact <= 1.0


@given(st.floats(min_value=0, max_value=1), st.integers(min_value=1, max_value=100))
@settings(max_examples=100, deadline=None)
def test_union_bound_properties(p, count):
    result = float(union_bound(p, count))
    assert 0.0 <= result <= 1.0
    assert result >= min(p, 1.0) - 1e-12


# -- mempool conservation ---------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),  # fraction packed
            st.integers(min_value=0, max_value=4),  # max_age perturbation
            st.integers(min_value=0, max_value=30),  # capacity perturbation
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=40, deadline=None)
def test_mempool_conservation_identity(seed, rounds):
    """Under arbitrary packing and TTL/capacity perturbations, every
    admitted transaction is accounted for exactly once:
    admitted == packed + queued + evicted (the checker's
    mempool-conservation invariant, exercised directly)."""
    generator = WorkloadGenerator(
        m=2, users_per_shard=16, rng=np.random.default_rng(seed)
    )
    mempool = TxMempool(
        generator, process="poisson", rate=12.0, capacity=0, max_age_rounds=0
    )
    packed_total = 0
    for round_number, (fraction, max_age, capacity) in enumerate(rounds, 1):
        mempool.max_age_rounds = max_age
        mempool.capacity = capacity
        now = float(round_number) * 10.0
        mempool.admit(
            round_number, now, cross_shard_ratio=0.25, invalid_ratio=0.1
        )
        queued = [e.tagged.tx.txid for e in mempool.queue]
        packed = set(queued[: int(fraction * len(queued))])
        mempool.settle(packed, round_number, now + 5.0)
        packed_total += len(packed)
        assert (
            mempool.total_admitted
            == packed_total + mempool.depth + mempool.total_evicted
        )
