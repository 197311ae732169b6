"""Rounds leave no cyclic garbage: after a warm-up round and a full
collection, the rounds of every backend free what they drop by reference
counting alone, so a collection with the collector held off since finds
nothing unreachable and every collector pass walks only live objects
(docs/perf.md, "The collector is the super-linear term").  About 1 s on a
2-core host."""

import gc

import pytest

from perfbench.adapter import build, checkpoint_roundtrip
from perfbench.workloads import BY_NAME
from repro import ProtocolParams, create_backend


def unreachable_after(ledger, rounds):
    """Objects ``gc.collect()`` finds unreachable after ``rounds`` rounds of
    ``ledger`` run with the collector off (one warm-up round first)."""
    ledger.run(1)
    gc.collect()
    gc.disable()
    try:
        ledger.run(rounds)
        return gc.collect()
    finally:
        gc.enable()


def test_faults_rounds_leave_no_cycles():
    """CycLedger under the ``faults`` adversary and timeline, so leader
    crashes, impeachments and retries run."""
    (ledger,) = build(BY_NAME["faults"], 0, 6)
    assert unreachable_after(ledger, 4) == 0
    assert any(report.recoveries for report in ledger.reports)


@pytest.mark.parametrize("backend", ["rapidchain", "omniledger_sim"])
def test_rival_rounds_leave_no_cycles(backend):
    params = ProtocolParams(n=96, m=4, lam=2, referee_size=8, seed=0,
                            tx_per_committee=24, users_per_shard=48)
    assert unreachable_after(create_backend(backend, params), 3) == 0


def test_restored_soak_rounds_leave_no_cycles(tmp_path):
    """A ``soak``-shape ledger restored from its checkpoint; the dropped
    original is one reference cycle, collected before the count starts."""
    workload = BY_NAME["soak"]
    (ledger,) = build(workload, 0, 8)
    ledger.run(2)
    restored, _size = checkpoint_roundtrip(
        ledger, workload, str(tmp_path / "soak.ckpt"), lambda _name, fn: fn()
    )
    del ledger
    assert gc.collect() > 0
    assert unreachable_after(restored, 4) == 0
