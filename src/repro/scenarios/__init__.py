"""Scenario / fault-injection subsystem.

Declarative, seed-deterministic fault timelines (network partitions,
latency spikes, leader crashes, adversary-fraction ramps, node churn,
and at most one state-observing adversary policy) applied to a running :class:`~repro.core.protocol.CycLedger` through its
phase pipeline's hooks.

    from repro import CycLedger, ProtocolParams
    from repro.scenarios import SCENARIO_PRESETS

    ledger = CycLedger(
        ProtocolParams(n=48, m=4, lam=2, referee_size=8),
        scenario=SCENARIO_PRESETS["partition-halves"],
    )
    reports = ledger.run(rounds=5)  # rounds 2-3 partitioned, then recovery
"""

from repro.scenarios.events import (
    HALVES,
    AdversaryRamp,
    Churn,
    LatencySpike,
    LeaderCrash,
    Partition,
)
from repro.scenarios.policies import (
    AdversaryPolicy,
    LeaderboardCorruption,
    QuorumWithholding,
    RefereeEclipse,
    TargetedCensorship,
)
from repro.scenarios.presets import SCENARIO_PRESETS
from repro.scenarios.scenario import (
    EVENT_TYPES,
    Scenario,
    ScenarioDriver,
    event_from_dict,
    event_to_dict,
)

__all__ = [
    "EVENT_TYPES",
    "HALVES",
    "AdversaryPolicy",
    "AdversaryRamp",
    "Churn",
    "LatencySpike",
    "LeaderCrash",
    "LeaderboardCorruption",
    "Partition",
    "QuorumWithholding",
    "RefereeEclipse",
    "SCENARIO_PRESETS",
    "Scenario",
    "ScenarioDriver",
    "TargetedCensorship",
    "event_from_dict",
    "event_to_dict",
]
