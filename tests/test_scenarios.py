"""Scenario / fault-injection subsystem: events, driver, determinism."""

import json

import pytest
from config_cube import Cell, assert_pinned, assert_prefix, check
from hypothesis import given
from hypothesis import strategies as st

from repro import CycLedger, ProtocolParams
from repro.net.params import ChannelClass
from repro.scenarios import (
    EVENT_TYPES,
    SCENARIO_PRESETS,
    AdversaryRamp,
    Churn,
    LatencySpike,
    LeaderCrash,
    LeaderboardCorruption,
    Partition,
    QuorumWithholding,
    RefereeEclipse,
    Scenario,
    TargetedCensorship,
)


def small_params(seed=0, **overrides) -> ProtocolParams:
    defaults = dict(n=48, m=4, lam=2, referee_size=8, seed=seed,
                    users_per_shard=24, tx_per_committee=6,
                    cross_shard_ratio=0.4)
    defaults.update(overrides)
    return ProtocolParams(**defaults)


# -- event validation --------------------------------------------------------
def test_event_validation():
    with pytest.raises(ValueError):
        Partition(start_round=2, end_round=1, committees="halves")
    with pytest.raises(ValueError):
        Partition(start_round=1, end_round=2)  # neither committees nor nodes
    with pytest.raises(ValueError):
        Partition(start_round=1, end_round=2, committees="thirds")
    with pytest.raises(ValueError):
        LatencySpike(start_round=1, end_round=2, factor=0.5)
    with pytest.raises(ValueError):
        LeaderCrash(round=0, committees=(0,))
    with pytest.raises(ValueError):
        AdversaryRamp(start_round=1, end_round=2,
                      start_fraction=0.0, end_fraction=1.5)
    with pytest.raises(ValueError):
        Churn(start_round=1, end_round=2, offline_fraction=1.0)


def test_latency_spike_rejects_an_unknown_channel_class():
    """A misspelled class used to be accepted and logged, and then slowed no
    link: the spike was a silent no-op.  A JSON scenario fails the same way."""
    named = (r"unknown channel class 'parital'; "
             r"one of \('intra', 'key', 'referee', 'partial', 'local'\)")
    with pytest.raises(ValueError, match=named):
        LatencySpike(start_round=1, end_round=1, factor=9.0, channels=("parital",))
    spike = {"kind": "latency_spike", "start_round": 1, "end_round": 1, "factor": 9.0,
             "channels": ["key", "parital"]}
    with pytest.raises(ValueError, match="scenario 's': event 0: " + named):
        Scenario.from_dict({"name": "s", "events": [spike]})
    assert LatencySpike(1, 1, 9.0, (ChannelClass.PARTIAL,)).channels == ("partial",)


def test_ramp_interpolates_and_clamps():
    ramp = AdversaryRamp(start_round=2, end_round=4,
                         start_fraction=0.0, end_fraction=0.3)
    assert ramp.fraction_at(2) == 0.0
    assert ramp.fraction_at(3) == pytest.approx(0.15)
    assert ramp.fraction_at(4) == pytest.approx(0.3)


@pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
def test_scenario_json_round_trip(name):
    scenario = SCENARIO_PRESETS[name]
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_scenario_rejects_two_policies():
    """At most one policy per timeline: two would re-aim one corruption
    budget twice a round."""
    two = (
        SCENARIO_PRESETS["censorship"].events
        + SCENARIO_PRESETS["referee-eclipse"].events
    )
    with pytest.raises(ValueError, match="'both': at most one adversary policy"):
        Scenario("both", two)


_CRASH = {"kind": "leader_crash", "round": 1, "committees": [0]}
_CHURN = {"kind": "churn", "start_round": 1, "end_round": 2, "offline_fraction": 0.1}


@pytest.mark.parametrize(
    "data, named",
    [
        # bare KeyErrors on the parent commit
        ({"events": []}, "scenario is missing 'name'"),
        ({"name": "s"}, "scenario is missing 'events'"),
        ({"name": "s", "events": [{"round": 1}]}, "'s': event 0: event is missing 'kind'"),
        ({"name": "s", "events": [{"kind": "bribe"}]}, "'s': event 0: unknown event kind 'bribe'"),
        # TypeErrors from the dataclass constructor on the parent commit
        ({"name": "s", "events": [_CRASH, {**_CRASH, "rounds": 2}]},
         "'s': event 1: leader_crash: unknown field 'rounds'"),
        ({"name": "s", "events": [{"kind": "leader_crash", "round": 1}]},
         "'s': event 0: leader_crash: missing field 'committees'"),
        # accepted by the parent commit, and then never fired
        ({"name": "s", "events": [{**_CRASH, "round": 1.5}]},
         "'s': event 0: leader_crash.round must be an integer, got 1.5"),
        ({"name": "s", "events": [{**_CRASH, "duration": 2.0}]},
         "leader_crash.duration must be an integer, got 2.0"),
        ({"name": "s", "events": [{**_CHURN, "end_round": 2.5}]},
         "churn.end_round must be an integer, got 2.5"),
        ({"name": "s", "events": [{"kind": "censorship", "start_round": True, "end_round": 2}]},
         "censorship.start_round must be an integer, got True"),
    ],
)
def test_from_dict_fails_early_and_by_name(data, named):
    with pytest.raises(ValueError, match=named):
        Scenario.from_dict(data)


_round = st.integers(1, 50)
_fraction = st.floats(0.0, 1.0)
_groups = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=3).map(tuple), min_size=1, max_size=3
).map(tuple)


def _windowed(cls, **fields):
    """Instances of a windowed event class over any valid window."""
    window = st.tuples(_round, _round).map(sorted)
    return st.builds(lambda w, **kw: cls(*w, **kw), window, **fields)


_SCHEDULED = {
    Partition: _windowed(
        Partition, committees=st.just("halves") | _groups, isolate_referee=st.booleans()
    ) | _windowed(Partition, nodes=_groups),
    LatencySpike: _windowed(
        LatencySpike,
        factor=st.floats(1.0, 16.0),
        channels=st.none() | st.lists(st.sampled_from(ChannelClass.ALL)).map(tuple),
    ),
    LeaderCrash: st.builds(
        LeaderCrash, round=_round, committees=_groups.map(lambda g: g[0]), duration=_round
    ),
    AdversaryRamp: _windowed(AdversaryRamp, start_fraction=_fraction, end_fraction=_fraction),
    Churn: _windowed(Churn, offline_fraction=st.floats(0.0, 1.0, exclude_max=True)),
}
_POLICIES = {
    LeaderboardCorruption: _windowed(
        LeaderboardCorruption, budget_fraction=_fraction, include_leaders=st.booleans()
    ),
    QuorumWithholding: _windowed(QuorumWithholding, budget_fraction=_fraction),
    RefereeEclipse: _windowed(RefereeEclipse),
    TargetedCensorship: _windowed(
        TargetedCensorship, keep_fraction=_fraction, budget_fraction=_fraction
    ),
}


@given(
    scheduled=st.lists(st.one_of(*_SCHEDULED.values()), max_size=4),
    policy=st.none() | st.one_of(*_POLICIES.values()),
)
def test_from_dict_inverts_to_dict_for_every_event_kind(scheduled, policy):
    """Through JSON *text* (tuples come back as lists), over every kind the
    codec knows — a new event class without a strategy here fails."""
    assert {*_SCHEDULED, *_POLICIES} == set(EVENT_TYPES.values())
    events = tuple(scheduled) + (() if policy is None else (policy,))
    scenario = Scenario("generated", events)
    payload = json.loads(json.dumps(scenario.to_dict()))
    assert Scenario.from_dict(payload) == scenario


@pytest.mark.parametrize("name", [
    "adaptive-corruption", "censorship", "latency-spike+adaptive-corruption",
    "quorum-withholding", "referee-eclipse",
])
def test_policy_timelines_match_the_two_driver_implementation(name):
    """Rows and driver log of each policy preset, and of one run that
    composes a policy with a scheduled event, on n = 24, m = 2 (the pins in
    ``tests/fixtures/pinned_runs.json``, written by ``tools/pin.py``; first
    recorded at the last commit that had a separate PolicyDriver, where the
    composed run's two logs were merged into the order things happened, with
    values unmoved since)."""
    assert_pinned(name)


def test_last_event_round():
    assert SCENARIO_PRESETS["partition-halves"].last_event_round == 3
    assert SCENARIO_PRESETS["leader-crash"].last_event_round == 2
    # Multi-round crashes stay "active" until the crashed node recovers.
    long_crash = Scenario(
        "long", (LeaderCrash(round=2, committees=(0,), duration=3),)
    )
    assert long_crash.last_event_round == 4


# -- acceptance: partition degrades cross-shard packing, then recovers -------
def test_partition_degrades_cross_shard_packing_and_recovers():
    params = small_params(seed=0)
    baseline = CycLedger(params).run(5)
    partitioned = CycLedger(
        params, scenario=SCENARIO_PRESETS["partition-halves"]
    ).run(5)

    window = range(2, 4)  # partition-halves cuts rounds 2-3
    base_window = sum(r.cross_packed for r in baseline if r.round_number in window)
    part_window = sum(
        r.cross_packed for r in partitioned if r.round_number in window
    )
    assert part_window < 0.5 * base_window
    # Degradation is caused by the cut, visibly: packets died at the fabric.
    assert all(r.dropped > 0 for r in partitioned if r.round_number in window)
    # Recovery: after the window the cut is gone and packing resumes.
    post = [r for r in partitioned if r.round_number > 3]
    assert all(r.dropped == 0 for r in post)
    base_post = sum(r.cross_packed for r in baseline if r.round_number > 3)
    assert sum(r.cross_packed for r in post) > 0.5 * base_post


def test_partition_holds_over_roles_instead_of_crashing():
    """Seeds where the cut starves the PoW lottery must degrade (incumbent
    roles held over one round), not abort the run."""
    params = ProtocolParams(n=24, m=2, lam=2, referee_size=6, seed=42,
                            users_per_shard=12, tx_per_committee=4)
    ledger = CycLedger(params, scenario=SCENARIO_PRESETS["partition-halves"])
    reports = ledger.run(4)
    assert any(r.selection.held_over for r in reports)
    assert len(ledger.chain) == 4 and ledger.chain.verify()
    # The lottery resumes once the window closes.
    assert not reports[-1].selection.held_over
    assert reports[-1].block is not None


#: The partition cell the determinism tests share.
PARTITIONED = Cell(scenario="partition-halves", fraction=0.1, rounds=5)


def test_identical_seeds_give_identical_round_reports():
    check(PARTITIONED)


def test_different_scenarios_differ_same_seed():
    params = small_params(seed=7)
    clean = CycLedger(params).run(3)
    churned = CycLedger(params, scenario=SCENARIO_PRESETS["churn"]).run(3)
    assert clean[-1].block.hash != churned[-1].block.hash
    assert [r.messages for r in clean] != [r.messages for r in churned]


# -- individual event behaviours ---------------------------------------------
def test_leader_crash_triggers_recovery_then_heals():
    params = small_params(seed=1)
    ledger = CycLedger(params, scenario=SCENARIO_PRESETS["leader-crash"])
    reports = ledger.run(3)
    assert reports[1].recoveries >= 1
    assert reports[1].recovery_times
    assert all(t > 0 for t in reports[1].recovery_times)
    # The crash window ends with round 2: nothing is forced offline after.
    assert ledger.adversary.forced_offline == set()


def test_churn_forces_fresh_offline_sets_then_recovers():
    params = small_params(seed=2)
    ledger = CycLedger(params, scenario=SCENARIO_PRESETS["churn"])
    offline_per_round = []
    ledger.pipeline.add_phase_hook(
        "config",
        "pre",
        lambda ctx, phase: offline_per_round.append(
            frozenset(ledger.adversary.forced_offline)
        ),
    )
    ledger.run(5)
    assert offline_per_round[0] == frozenset()  # churn starts in round 2
    churning = offline_per_round[1:4]
    assert all(len(s) == int(0.15 * params.n) for s in churning)
    assert len(set(churning)) > 1  # fresh draw each round
    assert offline_per_round[4] == frozenset()  # window closed


def test_adversary_ramp_reaches_target_fraction():
    params = small_params(seed=3)
    ledger = CycLedger(params, scenario=SCENARIO_PRESETS["adversary-ramp"])
    counts = []
    ledger.pipeline.add_round_hook("post", lambda led, rep: counts.append(
        led.adversary.count
    ))
    ledger.run(5)
    assert counts[0] == 0
    assert counts == sorted(counts)  # monotone ramp up
    assert counts[-1] == int(0.25 * params.n)


def test_ramp_retarget_is_reversible():
    ledger = CycLedger(small_params(seed=4))
    adversary = ledger.adversary
    adversary.retarget_fraction(0.25)
    grown = sorted(adversary.corrupted)
    assert len(grown) == int(0.25 * 48)
    adversary.retarget_fraction(0.125)
    shrunk = sorted(adversary.corrupted)
    assert len(shrunk) == int(0.125 * 48)
    assert set(shrunk) <= set(grown)  # most recent corruptions heal first


def test_latency_spike_slows_the_round():
    params = small_params(seed=5)
    baseline = CycLedger(params).run(3)
    spiked = CycLedger(
        params, scenario=SCENARIO_PRESETS["latency-spike"]
    ).run(3)
    # Round 1 is untouched; rounds 2-3 run on 4x slower partial links.
    assert spiked[0].sim_time == baseline[0].sim_time
    assert spiked[1].sim_time > baseline[1].sim_time


def test_explicit_node_partition_and_scenario_attachment():
    """A hand-written scenario (not a preset) attaches the same way."""
    params = small_params(seed=6)
    scenario = Scenario(
        "two-islands",
        (Partition(start_round=1, end_round=1,
                   nodes=(tuple(range(24)), tuple(range(24, 48)))),),
    )
    ledger = CycLedger(params, scenario=scenario)
    report = ledger.run_round()
    assert report.dropped > 0
    assert ledger.scenario_driver is not None
    assert any("partition" in line for line in ledger.scenario_driver.log)


def test_node_partition_keeps_unlisted_referee_with_group_zero():
    """Explicit node groups that omit the referee must not strand it in
    the implicit remainder group (that would cut it off from everyone)."""
    params = small_params(seed=9)
    ledger_probe = CycLedger(params)
    non_referee = [
        nid for nid in range(params.n)
        if ledger_probe.nodes[nid].pk not in set(ledger_probe._next_referee)
    ]
    scenario = Scenario(
        "omit-referee",
        (Partition(start_round=1, end_round=1,
                   nodes=(tuple(non_referee[:20]), tuple(non_referee[20:]))),),
    )
    ledger = CycLedger(params, scenario=scenario)
    report = ledger.run_round()  # must complete: referee reachable by group 0
    assert report.dropped > 0


def test_scenario_bound_pipeline_cannot_be_shared():
    """Every ledger builds its own pipeline and no pipeline can be handed
    in, so a scenario's hooks fire on its own ledger's rounds only."""
    params = small_params(seed=9)
    # A scheduled fault and an adversary policy bind a pipeline alike.
    for scenario in (SCENARIO_PRESETS["churn"], SCENARIO_PRESETS["censorship"]):
        faulty = CycLedger(params, scenario=scenario)
        with pytest.raises(TypeError, match="pipeline"):
            CycLedger(params, scenario=scenario, pipeline=faulty.pipeline)
        plain = CycLedger(params)
        assert plain.pipeline is not faulty.pipeline
        assert plain.pipeline._round_hooks == {"pre": [], "post": []}
        assert not plain.pipeline._phase_hooks
        faulty.run(2)
        assert [r.block.hash for r in plain.run(2)] == [
            r.block.hash for r in CycLedger(params).run(2)
        ]


def test_out_of_range_committee_index_fails_at_attach():
    params = small_params(seed=9)  # m=4: valid indices are 0-3
    bad_crash = Scenario("bad", (LeaderCrash(round=1, committees=(4,)),))
    with pytest.raises(ValueError, match="committee indices"):
        CycLedger(params, scenario=bad_crash)
    bad_cut = Scenario(
        "bad-cut",
        (Partition(start_round=1, end_round=1, committees=((0,), (5,))),),
    )
    with pytest.raises(ValueError, match="committee indices"):
        CycLedger(params, scenario=bad_cut)
    # Explicit node groups validate too: nonexistent ids would otherwise
    # make the partition a silent no-op.
    bad_nodes = Scenario(
        "bad-nodes",
        (Partition(start_round=1, end_round=1, nodes=((100, 101), (102,))),),
    )
    with pytest.raises(ValueError, match="node ids"):
        CycLedger(params, scenario=bad_nodes)
    # A committee or node in two groups was accepted by the parent commit and
    # raised mid-round from Network.set_partitions.
    for groups in (dict(committees=((0,), (1, 0))), dict(nodes=((3, 4), (4,)))):
        overlapping = Scenario(
            "twice", (Partition(start_round=1, end_round=1, **groups),)
        )
        field = next(iter(groups))
        with pytest.raises(
            ValueError, match=rf"'twice': partition\.{field}: .* in two groups"
        ):
            CycLedger(params, scenario=overlapping)


def test_scenario_rng_isolated_from_protocol_streams():
    """Attaching a scenario must not perturb the fault-free trajectory of
    rounds the scenario does not touch (round 1 here)."""
    assert_prefix(PARTITIONED)


# -- degraded runs, pinned ---------------------------------------------------
@pytest.mark.parametrize("name", [
    "cycledger-latency-spike", "cycledger-two-spikes",
    "rapidchain-latency-spike", "rapidchain-two-spikes",
])
def test_degraded_runs_are_pinned(name):
    """Each round's row under latency spikes, ``sim_time`` to the last bit;
    ``two-spikes`` overlaps a second spike on KEY / REFEREE channels in
    rounds 3-4, where the multipliers compose.

    The head hash alone cannot see a delay: both timelines end at the same
    block on either backend, while their round 3 differs by ~230 s on
    CycLedger."""
    assert_pinned(name)
