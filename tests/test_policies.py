"""Adversary policies: serialization, determinism, pairing, and strategy."""

from __future__ import annotations

import json

import pytest

from repro.backends import backend_names, create_backend
from repro.core.config import ProtocolParams
from repro.exp import ExperimentSpec
from repro.exp.results import round_row
from repro.scenarios import (
    POLICY_PRESETS,
    SCENARIO_PRESETS,
    LeaderboardCorruption,
    policy_from_dict,
    policy_to_dict,
)

SMALL = dict(
    n=24,
    m=2,
    lam=2,
    referee_size=6,
    users_per_shard=12,
    tx_per_committee=4,
    cross_shard_ratio=0.25,
)


def _run(policy=None, seed=7, rounds=4, backend="cycledger", **kwargs):
    params = ProtocolParams(seed=seed, **SMALL)
    ledger = create_backend(backend, params, policy=policy, **kwargs)
    reports = ledger.run(rounds=rounds)
    return ledger, reports


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(POLICY_PRESETS))
def test_policy_json_round_trip(name):
    policy = POLICY_PRESETS[name]
    payload = json.loads(json.dumps(policy_to_dict(policy)))
    assert policy_from_dict(payload) == policy


def test_policy_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown policy kind"):
        policy_from_dict({"kind": "bribe-everyone"})


# -- determinism and pairing -------------------------------------------------


@pytest.mark.parametrize("name", sorted(POLICY_PRESETS))
def test_policy_timeline_deterministic(name):
    """Identical seeds replay the exact policy event timeline and rounds."""
    policy = POLICY_PRESETS[name]
    rounds = policy.last_active_round + 1
    ledger_a, reports_a = _run(policy, rounds=rounds)
    ledger_b, reports_b = _run(policy, rounds=rounds)
    assert ledger_a.policy_driver.log == ledger_b.policy_driver.log
    assert [round_row(r) for r in reports_a] == [round_row(r) for r in reports_b]
    # Log lines ride the continuous timeline clock, not the round index.
    for line in ledger_a.policy_driver.log:
        assert line.startswith("t=")


def test_policy_free_prefix_is_byte_identical():
    """Before the first strike round, a policy arm matches the policy-free
    arm byte-for-byte (seed-pairing: the policy stream is drawn but never
    consumed by shipped policies)."""
    _, plain = _run(None, rounds=1)
    _, attacked = _run(POLICY_PRESETS["adaptive-corruption"], rounds=1)
    assert round_row(plain[0]) == round_row(attacked[0])


def test_policy_axis_pairs_seeds_but_splits_keys():
    spec = ExperimentSpec(
        name="pairing",
        rounds=2,
        seeds=(0,),
        base=dict(SMALL),
        policy_grid=(None, "adaptive-corruption"),
    )
    points = spec.expand()
    assert [p.policy for p in points] == [None, "adaptive-corruption"]
    assert points[0].derived_seed == points[1].derived_seed
    assert points[0].key != points[1].key
    assert points[1].descriptor()["policy"] == "adaptive-corruption"


def test_spec_rejects_unknown_policy_and_both_axes():
    with pytest.raises(ValueError, match="unknown policy"):
        ExperimentSpec(name="bad", base=dict(SMALL), policy="nope")
    with pytest.raises(ValueError, match="not both"):
        ExperimentSpec(
            name="bad",
            base=dict(SMALL),
            policy="adaptive-corruption",
            policy_grid=("censorship",),
        )


# -- strategic behaviour -----------------------------------------------------


def test_leaderboard_corruption_tracks_the_leaderboard():
    """The adaptive policy re-aims at current top-reputation nodes, so its
    strike log changes across rounds as the leaderboard shifts."""
    policy = POLICY_PRESETS["adaptive-corruption"]
    ledger, _ = _run(policy, rounds=policy.last_active_round + 1)
    strikes = [ln for ln in ledger.policy_driver.log if "corrupts" in ln]
    assert len(strikes) >= 2
    targets = {ln.split("corrupts")[1] for ln in strikes}
    assert len(targets) > 1, "targets never moved despite leaderboard churn"


def test_corruption_heals_after_the_window():
    policy = LeaderboardCorruption(
        start_round=2, end_round=3, budget_fraction=0.25
    )
    ledger, _ = _run(policy, rounds=5)
    assert ledger.adversary.count == 0


def test_adaptive_corruption_hurts_rivals_more_than_cycledger():
    """The acceptance contrast: the same adaptive adversary on the same
    seed degrades the recovery-free rivals harder than CycLedger."""
    policy = POLICY_PRESETS["adaptive-corruption"]

    def packed_ratio(backend):
        _, plain = _run(None, backend=backend, rounds=5)
        _, attacked = _run(policy, backend=backend, rounds=5)
        base = sum(r.packed for r in plain)
        hit = sum(r.packed for r in attacked)
        return hit / base if base else 0.0

    cyc = packed_ratio("cycledger")
    for rival in ("rapidchain", "omniledger_sim"):
        assert cyc > packed_ratio(rival)


# -- wiring errors -----------------------------------------------------------


def test_policy_needs_dedicated_pipeline():
    from repro.core.protocol import CycLedger

    params = ProtocolParams(seed=1, **SMALL)
    ledger = CycLedger(params)
    with pytest.raises(ValueError, match="dedicated pipeline"):
        CycLedger(
            params,
            policy=POLICY_PRESETS["censorship"],
            pipeline=ledger.pipeline,
        )


def test_policy_driver_rejects_shared_pipeline():
    from repro.scenarios.policies import PolicyDriver

    params = ProtocolParams(seed=1, **SMALL)
    ledger = create_backend(
        "cycledger", params, policy=POLICY_PRESETS["censorship"]
    )
    import numpy as np

    driver = PolicyDriver(POLICY_PRESETS["censorship"], np.random.default_rng(0))
    with pytest.raises(ValueError, match="already"):
        driver.install(ledger)


def test_create_backend_rejects_unknown_policy_name_indirectly():
    # Policies resolve by preset name only in the exp layer; backends take
    # instances, so a bad name fails at spec validation (covered above) —
    # here we just pin that passing a non-policy object fails loudly.
    params = ProtocolParams(seed=1, **SMALL)
    with pytest.raises(AttributeError):
        ledger = create_backend("cycledger", params, policy="not-a-policy")
        ledger.run(rounds=1)


# -- composition -------------------------------------------------------------


def test_policy_composes_with_scenario():
    """A scripted scenario and an adaptive policy can share one run: both
    drivers install and both logs populate."""
    scenario = SCENARIO_PRESETS["latency-spike"]
    policy = POLICY_PRESETS["adaptive-corruption"]
    params = ProtocolParams(seed=11, **SMALL)
    ledger = create_backend(
        "cycledger", params, scenario=scenario, policy=policy
    )
    rounds = max(scenario.last_event_round, policy.last_active_round) + 1
    ledger.run(rounds=rounds)
    assert ledger.scenario_driver.log
    assert ledger.policy_driver.log


@pytest.mark.parametrize("backend", backend_names())
def test_policies_run_on_every_backend(backend):
    policy = POLICY_PRESETS["quorum-withholding"]
    ledger, reports = _run(policy, backend=backend, rounds=3)
    assert len(reports) == 3
    assert ledger.policy is policy
