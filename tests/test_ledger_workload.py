"""Workload generator: ground truth, routing, reconciliation."""

import numpy as np
import pytest
from reference_impls import by_home_shard
from tx_builders import genesis_views

from repro.ledger.state import apply_block
from repro.ledger.transaction import shard_of_address
from repro.ledger.utxo import validate_transaction
from repro.ledger.workload import WorkloadGenerator


@pytest.fixture
def generator(rng):
    return WorkloadGenerator(m=4, users_per_shard=16, rng=rng)


def test_addresses_bucketed_correctly(generator):
    for shard, bucket in enumerate(generator.addresses_by_shard):
        assert len(bucket) == 16
        for address in bucket:
            assert shard_of_address(address, 4) == shard


def test_genesis_covers_all_users(generator):
    assert len(generator.genesis_tx.outputs) == 64
    _states, utxos = genesis_views(generator)
    assert len(utxos) == 64
    assert utxos.total_value() == 64 * generator.endowment


def test_ground_truth_matches_v(generator):
    states, utxos = genesis_views(generator)
    for _ in range(6):
        batch = generator.generate_batch(50, cross_shard_ratio=0.4, invalid_ratio=0.2)
        results = [validate_transaction(t.tx, utxos) for t in batch]
        for tagged, result in zip(batch, results):
            assert bool(result) == tagged.intended_valid, (tagged.defect, result)
        for tagged, result in zip(batch, results):
            if result:
                apply_block(states, [tagged.tx], generator.shard_of, utxos)
        generator.forget_txids([t.tx for t in batch])


def test_cross_shard_flag_accurate(generator):
    batch = generator.generate_batch(80, cross_shard_ratio=0.5)
    for tagged in batch:
        out_shards = {shard_of_address(address, 4) for address, _ in tagged.tx.outputs}
        if tagged.cross_shard:
            assert out_shards - {tagged.home_shard}
        elif tagged.intended_valid:
            assert out_shards == {tagged.home_shard}


def test_cross_ratio_roughly_respected(rng):
    generator = WorkloadGenerator(m=4, users_per_shard=32, rng=rng)
    batch = generator.generate_batch(400, cross_shard_ratio=0.5)
    observed = sum(t.cross_shard for t in batch) / len(batch)
    assert 0.3 < observed < 0.7


def test_invalid_ratio_roughly_respected(rng):
    # Keep the request within the spendable pool so no valid builds run dry.
    generator = WorkloadGenerator(m=4, users_per_shard=64, rng=rng)
    batch = generator.generate_batch(200, invalid_ratio=0.3)
    observed = sum(not t.intended_valid for t in batch) / len(batch)
    assert 0.15 < observed < 0.45


def test_batch_shrinks_when_pool_dry(generator):
    """Requesting far more than the spendable supply yields a shorter batch
    (valid builds are skipped), never an exception."""
    batch = generator.generate_batch(500, invalid_ratio=0.0)
    assert 0 < len(batch) < 500


def test_routing_by_home_shard(generator):
    batch = generator.generate_batch(60, cross_shard_ratio=0.3)
    routed = by_home_shard(batch, generator.m)
    assert sum(len(r) for r in routed) == len(batch)
    for k, pool in enumerate(routed):
        assert all(t.home_shard == k for t in pool)


def test_defect_kinds(generator):
    batch = generator.generate_batch(300, invalid_ratio=0.5)
    defects = {t.defect for t in batch if not t.intended_valid}
    assert defects <= {"double_spend", "overspend", "phantom_input"}
    assert len(defects) >= 2


def test_confirm_round_rolls_back_unpacked(generator):
    """A valid tx that never reached a block must not poison later ground
    truth: its input is spendable again and later spends of it are valid."""
    _states, utxos = genesis_views(generator)
    batch = generator.generate_batch(30, invalid_ratio=0.0)
    # pretend NOTHING was packed
    rolled = generator.rollback_txids([t.tx.txid for t in batch])
    assert rolled == len([t for t in batch if t.intended_valid])
    batch2 = generator.generate_batch(30, invalid_ratio=0.0)
    for tagged in batch2:
        assert bool(validate_transaction(tagged.tx, utxos)) == tagged.intended_valid


def test_confirm_round_keeps_packed(generator):
    states, utxos = genesis_views(generator)
    batch = generator.generate_batch(30, invalid_ratio=0.0)
    packed = [t.tx for t in batch]
    apply_block(states, packed, generator.shard_of, utxos)
    generator.forget_txids(packed)
    assert generator.rollback_txids([tx.txid for tx in packed]) == 0
    batch2 = generator.generate_batch(30, invalid_ratio=0.0)
    for tagged in batch2:
        assert bool(validate_transaction(tagged.tx, utxos)) == tagged.intended_valid


def test_param_validation(generator):
    with pytest.raises(ValueError):
        generator.generate_batch(1, cross_shard_ratio=2.0)
    with pytest.raises(ValueError):
        generator.generate_batch(1, invalid_ratio=-0.1)
    with pytest.raises(ValueError):
        WorkloadGenerator(m=0, users_per_shard=1, rng=np.random.default_rng(0))


def test_determinism():
    a = WorkloadGenerator(m=2, users_per_shard=8, rng=np.random.default_rng(3))
    b = WorkloadGenerator(m=2, users_per_shard=8, rng=np.random.default_rng(3))
    batch_a = a.generate_batch(20, cross_shard_ratio=0.3, invalid_ratio=0.1)
    batch_b = b.generate_batch(20, cross_shard_ratio=0.3, invalid_ratio=0.1)
    assert [t.tx.txid for t in batch_a] == [t.tx.txid for t in batch_b]
