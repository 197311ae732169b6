"""Large-n fast path: byte-identity of the vectorized roster/reputation
machinery against the pre-vectorization seed behaviour.

Three contracts, checked *before* any timing claims:

1. **Run byte-identity** — every round row and the final chain and
   reputation match the pins, for every execution path: default,
   overlapped, and both rival backends (``tests/fixtures/pinned_runs.json``,
   written by ``tools/pin.py``; first pinned at v1.6.0, the last
   pre-vectorization HEAD, with values unmoved since).
2. **Artifact byte-identity** — the sweep JSON (minus the version-bearing
   ``spec_hash`` field) and CSV artifacts hash to the pinned SHA-256
   digests, so the *encodings* leaders of downstream tooling consume are
   pinned too, not only the in-memory rows.
3. **Vectorized == scalar** — the batched sortition primitives
   (:func:`role_digests`, :func:`rank_select`,
   :func:`assign_partial_sets`) reproduce the scalar reference paths
   value-for-value, including tie handling.
"""

from __future__ import annotations

import pytest
from config_cube import assert_pinned
from reference_impls import partial_committee_of, role_hash

from repro.backends import create_backend
from repro.core.config import ProtocolParams
from repro.core.sortition import (
    PARTIAL_ROLE,
    assign_partial_sets,
    rank_select,
    role_digests,
)


# -- 1. run byte-identity against the v1.6.0 pins ----------------------------
@pytest.mark.parametrize(
    "name",
    [
        "cycledger_n96",
        "cycledger_n64_overlap_poisson",
        "rapidchain_n96",
        "omniledger_n96",
    ],
)
def test_fast_path_matches_pre_vectorization_fixture(name):
    assert_pinned(name)


# -- 2. sweep artifact byte-identity -----------------------------------------
def test_sweep_artifacts_byte_identical():
    assert_pinned("sweep")


# -- 3. vectorized == scalar equivalence -------------------------------------
def _roster(count: int) -> list[str]:
    return [f"pk-{i:04d}" for i in range(count)]


RAND = b"\x07" * 32


def test_role_digests_match_scalar_role_hash():
    pks = _roster(64)
    digests = role_digests(9, RAND, pks, "LEADER")
    for pk, digest in zip(pks, digests):
        assert int.from_bytes(digest, "big") == role_hash(9, RAND, pk, "LEADER")


def test_rank_select_matches_scalar_ranking():
    pks = _roster(40)
    for count in (0, 1, 7, 40):
        expected = sorted(pks, key=lambda pk: role_hash(5, RAND, pk, "X"))[:count]
        assert rank_select(pks, 5, RAND, "X", count) == expected
    with pytest.raises(ValueError):
        rank_select(pks, 5, RAND, "X", 41)


def test_assign_partial_sets_matches_scalar_reimplementation():
    pool = _roster(37)
    m, lam = 5, 3
    # Scalar reference: rank by role_hash, bucket by partial_committee_of.
    order = sorted(pool, key=lambda pk: role_hash(11, RAND, pk, PARTIAL_ROLE))
    expected: list[list[str]] = [[] for _ in range(m)]
    overflow: list[str] = []
    for pk in order:
        k = partial_committee_of(11, RAND, pk, m)
        if len(expected[k]) < lam:
            expected[k].append(pk)
        else:
            overflow.append(pk)
    for k in range(m):
        while len(expected[k]) < lam and overflow:
            expected[k].append(overflow.pop(0))
    assert assign_partial_sets(pool, 11, RAND, m, lam) == expected


def test_per_node_memory_bounded_at_n1024():
    """Slimmed per-node state regression bound: building a 1024-node
    deployment must stay within a fixed per-node byte budget (measured
    ~3.2 KB/node including PKI keys, users and the reputation table;
    bounded at 8 KB so a reintroduced per-node dict/mailbox — tens of KB
    each — trips this immediately, while interpreter drift does not)."""
    import gc
    import sys
    import tracemalloc

    params = ProtocolParams(
        n=1024, m=32, lam=2, referee_size=32, seed=0,
        users_per_shard=24, tx_per_committee=6,
        cross_shard_ratio=0.3, invalid_ratio=0.1,
    )
    gc.collect()
    tracemalloc.start()
    try:
        ledger = create_backend("cycledger", params)
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_node = current / params.n
    assert per_node < 8192, f"per-node construction cost grew to {per_node:.0f} B"
    # Idle nodes are an array row, not a mailbox: slotted (no instance
    # dict) and the handler table materializes only on first subscription.
    node = next(iter(ledger.nodes.values()))
    assert not hasattr(node, "__dict__")
    assert node.handlers is None
    assert sys.getsizeof(node) <= 200
