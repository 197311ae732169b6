"""End-to-end integration: multi-round runs, honest and adversarial."""

import numpy as np
import pytest

from repro import AdversaryConfig, CycLedger, ProtocolParams
from repro.ledger.utxo import UTXOSet, validate_transaction


def small_params(seed=0, **overrides) -> ProtocolParams:
    defaults = dict(n=48, m=3, lam=2, referee_size=6, seed=seed,
                    users_per_shard=24, tx_per_committee=8)
    defaults.update(overrides)
    return ProtocolParams(**defaults)


def test_three_honest_rounds():
    ledger = CycLedger(small_params())
    reports = ledger.run(3)
    assert len(ledger.chain) == 3
    assert ledger.chain.verify()
    for report in reports:
        assert report.block is not None
        assert report.packed > 0
        assert report.recoveries == 0


def test_blocks_replayable_from_genesis():
    """Every packed transaction validates in order against genesis."""
    ledger = CycLedger(small_params(seed=2))
    ledger.run(3)
    utxos = UTXOSet()
    utxos.restore(ledger.workload.genesis_utxos().snapshot())
    for block in ledger.chain:
        for tx in block.transactions:
            assert validate_transaction(tx, utxos)
            utxos.apply_transaction(tx)


def test_cross_shard_included():
    ledger = CycLedger(small_params(seed=3, cross_shard_ratio=0.4))
    reports = ledger.run(2)
    assert any(r.cross_packed > 0 for r in reports)


def test_determinism_same_seed():
    a = CycLedger(small_params(seed=5)).run(2)
    b = CycLedger(small_params(seed=5)).run(2)
    assert [r.packed for r in a] == [r.packed for r in b]
    assert a[-1].block.hash == b[-1].block.hash


def test_different_seeds_differ():
    a = CycLedger(small_params(seed=6)).run(1)
    b = CycLedger(small_params(seed=7)).run(1)
    assert a[0].block.hash != b[0].block.hash


def test_roles_rotate_between_rounds():
    ledger = CycLedger(small_params(seed=8))
    ledger.run_round()
    referee_1 = set(ledger._next_referee)
    ledger.run_round()
    referee_2 = set(ledger._next_referee)
    assert referee_1 != referee_2  # overwhelmingly likely with fresh randomness


def test_randomness_changes_every_round():
    ledger = CycLedger(small_params(seed=9))
    r1 = ledger.run_round().block.randomness
    r2 = ledger.run_round().block.randomness
    assert r1 != r2


def test_invalid_txs_never_packed():
    ledger = CycLedger(small_params(seed=10, invalid_ratio=0.3))
    ledger.run(2)
    # replay check doubles as the assertion: invalid txs would fail V
    utxos = UTXOSet()
    utxos.restore(ledger.workload.genesis_utxos().snapshot())
    for block in ledger.chain:
        for tx in block.transactions:
            assert validate_transaction(tx, utxos)
            utxos.apply_transaction(tx)


def test_reputation_accumulates_for_honest():
    ledger = CycLedger(small_params(seed=11))
    ledger.run(3)
    reps = list(ledger.reputation.values())
    assert np.mean(reps) > 0


def test_rewards_accumulate_and_match_fees():
    ledger = CycLedger(small_params(seed=12))
    reports = ledger.run(2)
    total_fees = sum(r.blockgen.total_fees for r in reports)
    assert sum(ledger.rewards.values()) == pytest.approx(total_fees)


def test_adversarial_equivocators_recovered():
    """With 30% corruption the chain still grows and any corrupted leader is
    impeached within its round."""
    found_recovery = False
    for seed in range(1, 6):
        adv = AdversaryConfig(fraction=0.3)
        ledger = CycLedger(small_params(seed=seed), adversary=adv)
        report = ledger.run_round()
        assert report.block is not None, f"void block at seed {seed}"
        bad_leaders = [
            c.leader
            for c in []  # committees not exposed post-round; use recoveries
        ]
        if report.recoveries:
            found_recovery = True
            assert report.intra.equivocation_detected or report.inter.recoveries
    assert found_recovery


def test_contrary_voters_sink_below_honest():
    adv = AdversaryConfig(fraction=0.25, voter_strategy="contrary_voter")
    ledger = CycLedger(small_params(seed=13), adversary=adv)
    ledger.run(3)
    grouped = ledger.reputation_by_behavior()
    if "contrary_voter" in grouped and "honest" in grouped:
        assert np.mean(grouped["contrary_voter"]) < np.mean(grouped["honest"])


def test_rewards_ordering_honest_vs_malicious():
    adv = AdversaryConfig(fraction=0.25, voter_strategy="contrary_voter")
    ledger = CycLedger(small_params(seed=14), adversary=adv)
    ledger.run(3)
    honest_rewards, bad_rewards = [], []
    for node in ledger.nodes.values():
        reward = ledger.rewards.get(node.pk, 0.0)
        if ledger.adversary.is_corrupted(node.node_id):
            bad_rewards.append(reward)
        else:
            honest_rewards.append(reward)
    assert np.mean(honest_rewards) > np.mean(bad_rewards)


def test_throughput_scales_with_committees():
    """§III-D scalability: |TX| grows with n (quasi-linearly via m)."""
    packed = []
    for n, m in ((32, 2), (64, 4)):
        params = ProtocolParams(
            n=n, m=m, lam=2, referee_size=8, seed=20,
            users_per_shard=32, tx_per_committee=8,
        )
        ledger = CycLedger(params)
        reports = ledger.run(2)
        packed.append(sum(r.packed for r in reports))
    assert packed[1] > 1.5 * packed[0]


def test_mildly_adaptive_corruption_delayed():
    adv = AdversaryConfig(fraction=0.1)
    ledger = CycLedger(small_params(seed=15), adversary=adv)
    before = set(ledger.adversary.corrupted)
    target = next(i for i in ledger.nodes if i not in before)
    ledger.adversary.request_corruption({target})
    assert not ledger.adversary.is_corrupted(target)  # not yet
    ledger.run_round()  # advance_round happens inside
    assert ledger.adversary.is_corrupted(target)  # took effect after a round


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(n=50, m=3, lam=2, referee_size=6)  # 44 % 3 != 0
    with pytest.raises(ValueError):
        ProtocolParams(n=48, m=3, lam=20, referee_size=6)  # partial > committee
    with pytest.raises(ValueError):
        ProtocolParams(n=48, m=3, lam=2, referee_size=1)


def test_simulation_path_imports_neither_networkx_nor_scipy():
    """numpy is the one required dependency: a round with every optional
    piece on the simulation path switched on — §VIII-B sub-blocks, the
    invariant checker — runs in an interpreter where importing networkx or
    SciPy fails."""
    import os
    import subprocess
    import sys

    program = (
        "import sys\n"
        "sys.modules['networkx'] = sys.modules['scipy'] = None\n"
        "from repro import CycLedger, ProtocolParams\n"
        "from repro.analysis import InvariantChecker\n"
        "ledger = CycLedger(ProtocolParams(n=24, m=2, lam=2, referee_size=6,\n"
        "    seed=0, users_per_shard=12, tx_per_committee=4,\n"
        "    parallel_block_generation=True))\n"
        "checker = InvariantChecker()\n"
        "checker.install(ledger)\n"
        "report = ledger.run_round()\n"
        "checker.assert_clean()\n"
        "assert report.block is not None and report.packed > 0\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    result = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
