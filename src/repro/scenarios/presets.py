"""Named, canned scenarios.

Presets are concrete :class:`~repro.scenarios.scenario.Scenario` instances
keyed by name, so they can travel through JSON specs and the experiment
engine's worker pool by name alone (like capacity presets).  All of them
leave at least one clean round after the fault window so a run of
``last_event_round + 1`` rounds (or more) demonstrates recovery.
"""

from __future__ import annotations

from repro.net.params import ChannelClass
from repro.scenarios.events import (
    HALVES,
    AdversaryRamp,
    Churn,
    LatencySpike,
    LeaderCrash,
    Partition,
)
from repro.scenarios.policies import (
    LeaderboardCorruption,
    QuorumWithholding,
    RefereeEclipse,
    TargetedCensorship,
)
from repro.scenarios.scenario import Scenario

#: Split the committees into two halves and cut the fabric between them
#: for rounds 2–3 (the referee rides with group 0, so half the shards lose
#: the referee and inter-committee traffic crosses the cut).
partition_halves = Scenario(
    "partition-halves",
    (Partition(start_round=2, end_round=3, committees=HALVES),),
)

#: 15% of all nodes offline per round in rounds 2–4, fresh draw each round.
churn = Scenario(
    "churn",
    (Churn(start_round=2, end_round=4, offline_fraction=0.15),),
)

#: Corrupted fraction climbs 0 → 25% across rounds 1–4 and stays there.
adversary_ramp = Scenario(
    "adversary-ramp",
    (
        AdversaryRamp(
            start_round=1, end_round=4, start_fraction=0.0, end_fraction=0.25
        ),
    ),
)

#: Committee 0's incoming leader crashes in round 2 and recovers after it.
leader_crash = Scenario(
    "leader-crash",
    (LeaderCrash(round=2, committees=(0,)),),
)

#: Partially-synchronous links (PoW submission, block propagation) are 4×
#: slower in rounds 2–3.
latency_spike = Scenario(
    "latency-spike",
    (
        LatencySpike(
            start_round=2,
            end_round=3,
            factor=4.0,
            channels=(ChannelClass.PARTIAL,),
        ),
    ),
)

#: Compound stress: churn under a partition while the adversary ramps.
perfect_storm = Scenario(
    "perfect-storm",
    (
        Partition(start_round=3, end_round=4, committees=HALVES),
        Churn(start_round=2, end_round=4, offline_fraction=0.1),
        AdversaryRamp(
            start_round=1, end_round=3, start_fraction=0.0, end_fraction=0.2
        ),
    ),
)

SCENARIO_PRESETS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        partition_halves,
        churn,
        adversary_ramp,
        leader_crash,
        latency_spike,
        perfect_storm,
        # The four adversary policies, each alone on its timeline.  Windows
        # start at round 2 so round 1 is byte-identical to the policy-free
        # arm, and end early only where the healed tail is the point
        # (referee-eclipse).
        Scenario(
            "adaptive-corruption",
            (LeaderboardCorruption(2, 6, budget_fraction=0.25),),
        ),
        Scenario(
            "quorum-withholding", (QuorumWithholding(2, 6, budget_fraction=0.3),)
        ),
        Scenario("referee-eclipse", (RefereeEclipse(2, 3),)),
        Scenario(
            "censorship",
            (TargetedCensorship(2, 6, keep_fraction=0.25, budget_fraction=0.25),),
        ),
    )
}
