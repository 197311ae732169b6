"""Large-n fast path: byte-identity of the vectorized roster/reputation
machinery against the pre-vectorization seed behaviour.

Three contracts, checked *before* any timing claims:

1. **Run byte-identity** — every RoundReport row, phase sim-time map and
   final chain/reputation state must match the seed fixtures generated at
   v1.6.0 (the last pre-vectorization HEAD), for every execution path:
   default, overlapped, and both rival backends
   (``tests/fixtures/pre_largen_rounds.json``).
2. **Artifact byte-identity** — the sweep JSON (minus the version-bearing
   ``spec_hash`` field) and CSV artifacts hash to the pinned SHA-256
   digests, so the *encodings* leaders of downstream tooling consume are
   pinned too, not only the in-memory rows.
3. **Vectorized == scalar** — the batched sortition primitives
   (:func:`role_digests`, :func:`rank_select`,
   :func:`assign_partial_sets`) and the array-backed
   :class:`ReputationStore` reproduce the scalar/dict reference paths
   value-for-value, including tie handling and IEEE accumulation order.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.backends import create_backend
from repro.core.config import ProtocolParams
from repro.core.reputation import ReputationStore, distribute_rewards
from repro.core.sortition import (
    PARTIAL_ROLE,
    assign_partial_sets,
    partial_committee_of,
    rank_select,
    role_digests,
    role_hash,
)
from repro.exp import ExperimentSpec, Runner
from repro.exp.results import round_row, write_csv
from repro.exp.spec import canonical_json
from repro.nodes.adversary import AdversaryConfig

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "pre_largen_rounds.json"
)


@pytest.fixture(scope="module")
def fixtures():
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


# -- 1. run byte-identity against the v1.6.0 fixtures ------------------------
@pytest.mark.parametrize(
    "name",
    [
        "cycledger_n96",
        "cycledger_n64_overlap_poisson",
        "rapidchain_n96",
        "omniledger_n96",
    ],
)
def test_fast_path_matches_pre_vectorization_fixture(fixtures, name):
    fx = fixtures["runs"][name]
    ledger = create_backend(
        fx["backend"],
        ProtocolParams(**fx["params"]),
        adversary=AdversaryConfig(**fx["adversary"]) if fx["adversary"] else None,
    )
    reports = ledger.run(fx["rounds"])
    assert len(reports) == len(fx["rows"])
    for index, (report, want) in enumerate(zip(reports, fx["rows"])):
        got = round_row(report)
        view = {key: got[key] for key in want}
        assert canonical_json(view) == canonical_json(want), (
            f"{name} round {index} diverged from the pre-vectorization seed"
        )
    for index, (report, want) in enumerate(
        zip(reports, fx["phase_sim_times"])
    ):
        assert report.phase_sim_times == want, (
            f"{name} round {index}: phase sim times diverged"
        )
    assert ledger.chain.head.hash.hex() == fx["final"]["chain_head"]
    assert len(ledger.chain) == fx["final"]["chain_length"]
    assert ledger.total_packed() == fx["final"]["total_packed"]
    assert dict(sorted(ledger.reputation.items())) == fx["final"]["reputation"]


# -- 2. sweep artifact byte-identity -----------------------------------------
def test_sweep_artifacts_byte_identical(fixtures, tmp_path):
    spec = ExperimentSpec(
        name="pre-largen-sweep",
        rounds=2,
        seeds=(0,),
        base={
            "n": 96, "m": 4, "lam": 2, "referee_size": 8,
            "users_per_shard": 24, "tx_per_committee": 6,
            "cross_shard_ratio": 0.3, "invalid_ratio": 0.1,
        },
        adversary={"fraction": 0.2},
        backend_grid=("cycledger", "rapidchain", "omniledger_sim"),
    )
    outcome = Runner(spec, workers=1).run()
    payload = json.loads(outcome.json_bytes())
    payload.pop("spec_hash", None)  # the only version-bearing field
    stripped = (canonical_json(payload) + "\n").encode("utf-8")
    csv_path = tmp_path / "sweep.csv"
    write_csv(str(csv_path), outcome.results)
    want = fixtures["sweep"]
    assert hashlib.sha256(stripped).hexdigest() == want[
        "json_sha256_no_spec_hash"
    ], "sweep JSON artifact (minus spec_hash) diverged byte-for-byte"
    assert (
        hashlib.sha256(csv_path.read_bytes()).hexdigest() == want["csv_sha256"]
    ), "sweep CSV artifact diverged byte-for-byte"


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


def test_reputation_store_mapping_surface():
    pks = _roster(6)
    store = ReputationStore(pks)
    mirror = {pk: 0.0 for pk in pks}
    assert list(store) == pks and len(store) == 6
    assert store == mirror  # Mapping-equality bridge
    store[pks[2]] = 1.5
    mirror[pks[2]] = 1.5
    assert store[pks[2]] == 1.5 and store.get("absent", -1.0) == -1.0
    store["newcomer"] = 0.75  # growth path
    mirror["newcomer"] = 0.75
    assert "newcomer" in store and dict(store.items()) == mirror
    assert store.keys() == list(mirror) and store.values() == list(
        mirror.values()
    )


def test_reputation_store_add_scores_matches_scalar_accumulation():
    rng = np.random.default_rng(1234)
    pks = _roster(128)
    store = ReputationStore(pks)
    mirror: dict[str, float] = {pk: 0.0 for pk in pks}
    for _ in range(5):
        batch = [
            (pk, float(score))
            for pk, score in zip(pks, rng.uniform(-1.0, 1.0, size=len(pks)))
        ]
        applied = store.add_scores(batch)
        assert applied == len(batch)
        for pk, score in batch:
            mirror[pk] = mirror[pk] + score
    # Bit-identical IEEE accumulation, not approximate agreement.
    assert dict(store.items()) == mirror


def test_per_node_memory_bounded_at_n1024():
    """Slimmed per-node state regression bound: building a 1024-node
    deployment must stay within a fixed per-node byte budget (measured
    ~3.2 KB/node including PKI keys, users and the reputation store;
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


def test_distribute_rewards_identical_for_store_and_dict():
    pks = _roster(16)
    store = ReputationStore(pks)
    for i, pk in enumerate(pks):
        store[pk] = (i - 8) / 4.0
    as_dict = dict(store.items())
    assert distribute_rewards(13.5, store) == distribute_rewards(13.5, as_dict)
