"""Node behaviours: honest strategy, malicious strategies, and the
mildly-adaptive adversary controller (§III-C)."""

from repro.nodes.behaviors import (
    Behavior,
    HonestBehavior,
    EquivocatingLeader,
    CensoringLeader,
    SilentLeader,
    InterSilentLeader,
    BadSemiCommitLeader,
    ContraryVoter,
    RandomVoter,
    LazyVoter,
    OfflineNode,
    BEHAVIOR_REGISTRY,
)
from repro.nodes.adversary import AdversaryController, AdversaryConfig

__all__ = [
    "Behavior",
    "HonestBehavior",
    "EquivocatingLeader",
    "CensoringLeader",
    "SilentLeader",
    "InterSilentLeader",
    "BadSemiCommitLeader",
    "ContraryVoter",
    "RandomVoter",
    "LazyVoter",
    "OfflineNode",
    "BEHAVIOR_REGISTRY",
    "AdversaryController",
    "AdversaryConfig",
]
