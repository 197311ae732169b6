"""Adversarial integration scenarios beyond the basic runs."""

import pytest
from test_decision_reference import compare_every_round, impeached_at_seeds
from tx_builders import replay_from_genesis

from repro import AdversaryConfig, CycLedger, ProtocolParams


def params(seed=0, **overrides):
    defaults = dict(n=48, m=3, lam=2, referee_size=6, seed=seed,
                    users_per_shard=24, tx_per_committee=8)
    defaults.update(overrides)
    return ProtocolParams(**defaults)


def test_censoring_leader_adversary():
    adv = AdversaryConfig(
        fraction=0.3, leader_strategy="censoring_leader", voter_strategy="honest",
    )
    assert "censor" in {i.kind for i in impeached_at_seeds(params, adv)}


def test_silent_leader_adversary():
    adv = AdversaryConfig(
        fraction=0.3, leader_strategy="silent_leader", voter_strategy="honest",
    )
    assert "silence" in {i.kind for i in impeached_at_seeds(params, adv)}


def test_bad_semicommit_adversary():
    found = False
    for seed in range(1, 6):
        adv = AdversaryConfig(
            fraction=0.3, leader_strategy="bad_semicommit_leader",
            voter_strategy="honest",
        )
        ledger = CycLedger(params(seed=seed), adversary=adv)
        report = ledger.run_round()
        assert report.block is not None
        if report.semicommit.cheaters_detected:
            found = True
            assert any(e.succeeded for e in report.semicommit.recoveries)
    assert found


def test_offline_adversary_liveness():
    """A fifth of the network silently offline: blocks still flow."""
    adv = AdversaryConfig(fraction=0.2, offline_fraction=1.0)
    ledger = CycLedger(params(seed=3), adversary=adv)
    compare_every_round(ledger)
    reports = ledger.run(2)
    assert all(r.block is not None for r in reports)
    assert all(r.packed > 0 for r in reports)


def test_expelled_leader_not_reselected_immediately():
    """A punished ex-leader's reputation (cube-rooted) should generally keep
    it out of the next round's top-m leader set."""
    for seed in range(1, 8):
        adv = AdversaryConfig(fraction=0.3, leader_strategy="equivocating_leader",
                              voter_strategy="honest")
        ledger = CycLedger(params(seed=seed), adversary=adv)
        compare_every_round(ledger)
        report = ledger.run_round()
        if not report.recoveries:
            continue
        expelled_pks = set()
        for event in (report.intra.recoveries + report.semicommit.recoveries):
            expelled_pks.add(ledger.nodes[event.old_leader].pk)
        next_leaders = set(report.selection.next_leaders)
        # honest members gained ~1 reputation + punished leaders lost theirs
        assert not (expelled_pks & next_leaders)
        return
    pytest.skip("no recovery across seeds (improbable)")


def test_selection_fails_without_enough_participants():
    """Liveness guard: if nearly everyone is offline, staffing the next
    round is impossible and the protocol refuses loudly."""
    adv = AdversaryConfig(fraction=0.9, offline_fraction=1.0)
    ledger = CycLedger(params(seed=4), adversary=adv)
    with pytest.raises(RuntimeError):
        ledger.run_round()


def test_prefilter_enabled_full_protocol():
    ledger = CycLedger(
        params(seed=5, prefilter_cross_shard=True,
               cross_shard_ratio=0.5, invalid_ratio=0.4)
    )
    compare_every_round(ledger)
    reports = ledger.run(2)
    assert all(r.block is not None for r in reports)
    assert sum(r.inter.prefilter_savings for r in reports) > 0


def test_mixed_strategy_rounds_remain_consistent():
    """Equivocators + random voters + offline minority over 3 rounds: chain
    stays valid and every packed tx replays against genesis."""
    adv = AdversaryConfig(
        fraction=0.3, leader_strategy="equivocating_leader",
        voter_strategy="random_voter", offline_fraction=0.2,
    )
    ledger = CycLedger(params(seed=6), adversary=adv)
    ledger.run(3)
    assert ledger.chain.verify()
    replay_from_genesis(ledger)


def test_round_reports_account_for_submitted_txs():
    ledger = CycLedger(params(seed=7))
    report = ledger.run_round()
    assert 0 < report.packed <= report.submitted
    assert report.messages > 0
    assert report.bytes_sent > report.messages  # messages have bodies
    assert report.reliable_channels > 0
