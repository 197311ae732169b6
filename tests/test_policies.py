"""Adversary-policy events: determinism, pairing, and strategy.

A policy is one event of a :class:`~repro.scenarios.Scenario`; everything
here attaches it through ``scenario=`` like any other fault timeline.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest
import config_cube
from config_cube import Cell, assert_prefix, check

from repro.backends import backend_names, create_backend
from repro.core.config import ProtocolParams
from repro.exp import (
    ExperimentSpec,
    policies_artifact,
    policy_compare_spec,
    run_sweep,
)
from repro.scenarios import (
    SCENARIO_PRESETS,
    AdversaryPolicy,
    LeaderboardCorruption,
    Scenario,
)

#: the presets whose one event is an adversary policy
POLICY_PRESETS = {
    name: scenario
    for name, scenario in SCENARIO_PRESETS.items()
    if isinstance(scenario.events[0], AdversaryPolicy)
}


SMALL = {**config_cube.SMALL, "cross_shard_ratio": 0.25}


def _run(scenario=None, seed=7, rounds=4, backend="cycledger"):
    params = ProtocolParams(seed=seed, **SMALL)
    ledger = create_backend(backend, params, scenario=scenario)
    reports = ledger.run(rounds=rounds)
    return ledger, reports


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(POLICY_PRESETS))
def test_policy_json_round_trip(name):
    """Through JSON *text*, so tuples come back as lists."""
    scenario = POLICY_PRESETS[name]
    payload = json.loads(json.dumps(scenario.to_dict()))
    assert Scenario.from_dict(payload) == scenario


# -- determinism and pairing -------------------------------------------------


def _replayed(name: str) -> Cell:
    rounds = POLICY_PRESETS[name].last_event_round + 1
    return Cell(scenario=name, seed=7, rounds=rounds, shape=tuple(SMALL.items()))


@pytest.mark.parametrize("name", sorted(POLICY_PRESETS))
def test_policy_timeline_deterministic(name):
    """Identical seeds replay the exact policy event timeline and rounds."""
    _, run = check(_replayed(name))
    # Log lines ride the continuous timeline clock, not the round index.
    assert run.view.log and all(line.startswith("t=") for line in run.view.log)


def test_policy_free_prefix_is_byte_identical():
    """Before the first strike round, a policy arm matches the policy-free
    arm byte-for-byte (seed-pairing: policies draw from no RNG stream)."""
    assert_prefix(_replayed("adaptive-corruption"))


def test_policy_axis_pairs_seeds_but_splits_keys():
    spec = ExperimentSpec(
        name="pairing",
        rounds=2,
        seeds=(0,),
        base=dict(SMALL),
        scenario_grid=(None, "adaptive-corruption"),
    )
    points = spec.expand()
    assert [p.scenario for p in points] == [None, "adaptive-corruption"]
    assert points[0].derived_seed == points[1].derived_seed
    assert points[0].key != points[1].key


# -- strategic behaviour -----------------------------------------------------


def test_leaderboard_corruption_tracks_the_leaderboard():
    """The adaptive policy re-aims at current top-reputation nodes, so its
    strike log changes across rounds as the leaderboard shifts."""
    scenario = POLICY_PRESETS["adaptive-corruption"]
    ledger, _ = _run(scenario, rounds=scenario.last_event_round + 1)
    strikes = [ln for ln in ledger.scenario_driver.log if "corrupts" in ln]
    assert len(strikes) >= 2
    targets = {ln.split("corrupts")[1] for ln in strikes}
    assert len(targets) > 1, "targets never moved despite leaderboard churn"


def test_corruption_heals_after_the_window():
    policy = LeaderboardCorruption(
        start_round=2, end_round=3, budget_fraction=0.25
    )
    ledger, _ = _run(Scenario("short-strike", (policy,)), rounds=5)
    assert ledger.adversary.count == 0


@pytest.fixture(scope="module")
def policy_sweep():
    """The seed-paired ``policy-compare`` sweep, run once for every test
    that reads it."""
    return run_sweep(policy_compare_spec(), workers=1)


def test_adaptive_corruption_hurts_rivals_more_than_cycledger(policy_sweep):
    """The acceptance contrast: the same adaptive adversary on the same
    seed degrades the recovery-free rivals harder than CycLedger."""
    arms = policies_artifact(policy_sweep)["backends"]
    cyc = arms["cycledger"]["packed_ratio"]
    for rival in ("rapidchain", "omniledger_sim"):
        assert cyc > arms[rival]["packed_ratio"]


# -- wiring and composition --------------------------------------------------


def test_policy_driver_rejects_shared_pipeline():
    """A policy's driver hooks the pipeline its own ledger built: no
    pipeline can be handed to a second ledger, so none carries two
    drivers."""
    params = ProtocolParams(seed=1, **SMALL)
    scenario = POLICY_PRESETS["censorship"]
    first = create_backend("cycledger", params, scenario=scenario)
    with pytest.raises(TypeError, match="pipeline"):
        create_backend("cycledger", params, scenario=scenario, pipeline=first.pipeline)
    second = create_backend("cycledger", params, scenario=scenario)
    assert second.pipeline is not first.pipeline
    assert second.scenario_driver is not first.scenario_driver
    for ledger in (first, second):
        hooks = ledger.pipeline._round_hooks["pre"]
        assert [hook.__self__ for hook in hooks] == [ledger.scenario_driver]


def test_policy_composes_with_scenario():
    """Scheduled events and a policy share one timeline, one driver and
    one log, in the order things happened."""
    scenario = Scenario(
        "latency-spike+adaptive-corruption",
        SCENARIO_PRESETS["latency-spike"].events
        + POLICY_PRESETS["adaptive-corruption"].events,
    )
    ledger, _ = _run(scenario, seed=11, rounds=scenario.last_event_round + 1)
    log = ledger.scenario_driver.log
    assert any("latency x4" in line for line in log)
    assert any("leaderboard_corruption corrupts" in line for line in log)
    stamps = [float(line.split()[0][2:]) for line in log]
    assert stamps == sorted(stamps)


@pytest.mark.parametrize("backend", backend_names())
def test_policies_run_on_every_backend(backend):
    scenario = POLICY_PRESETS["quorum-withholding"]
    ledger, reports = _run(scenario, backend=backend, rounds=3)
    assert len(reports) == 3
    assert ledger.scenario is scenario


# -- the committed artefact --------------------------------------------------


def test_bench_policies_artifact_is_current(tmp_path, policy_sweep):
    """Tier-1 value gate for ``BENCH_policies.json``: rebuild its dict with
    the function the bench uses and fail naming the first leaf that moved."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest",
        os.path.join(os.path.dirname(__file__), "..", "benchmarks", "conftest.py"),
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    fresh = policies_artifact(policy_sweep)
    bench.assert_matches_committed("BENCH_policies.json", fresh, tmp_path)
    fresh["backends"]["rapidchain"]["packed_under_policy"] += 1
    with pytest.raises(
        AssertionError,
        match=r"backends\.rapidchain\.packed_under_policy is 47 in a fresh run, 46 in",
    ):
        bench.assert_matches_committed("BENCH_policies.json", fresh, tmp_path)
