"""Mildly-adaptive adversary controller (§III-C).

"We may assume the existence of a probabilistic polynomial-time Adversary
which takes control of less than 1/3 part of total nodes. … he/she is
allowed to corrupt a set of nodes at the start of any round.  Nevertheless,
such corruption attempts require at least a round's time to take effect."

The controller owns the corrupted set and assigns behaviours:

* corrupted nodes that end up as leaders get a leader attack strategy;
* corrupted ordinary members get a voter attack strategy;
* corruption moves only between rounds (mild adaptivity): the retargets
  are called before the round's roles are assigned, so a corruption aimed
  during round ``r`` acts from round ``r+1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.nodes.behaviors import (
    BEHAVIOR_REGISTRY,
    Behavior,
    HonestBehavior,
)


@dataclass
class AdversaryConfig:
    """Static description of the adversary.

    ``fraction`` < 1/3 per the threat model (a larger value is allowed for
    experiments that demonstrate failure beyond the bound).
    ``leader_strategy`` / ``voter_strategy`` name entries in
    :data:`BEHAVIOR_REGISTRY`; ``strategy_kwargs`` are forwarded to the
    leader strategy constructor.
    """

    fraction: float = 0.0
    leader_strategy: str = "equivocating_leader"
    voter_strategy: str = "contrary_voter"
    offline_fraction: float = 0.0  # share of corrupted nodes simply offline
    strategy_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError("fraction must be in [0, 1]")
        known = ", ".join(sorted(BEHAVIOR_REGISTRY))
        for side in ("leader", "voter"):
            name = getattr(self, f"{side}_strategy")
            if name not in BEHAVIOR_REGISTRY:
                raise ValueError(f"unknown {side} strategy {name!r}; known: {known}")


class AdversaryController:
    """Chooses who is corrupted and what they do."""

    def __init__(
        self, config: AdversaryConfig, node_ids: list[int], rng: np.random.Generator
    ) -> None:
        self.config = config
        self.rng = rng
        self.all_ids = list(node_ids)
        t = int(config.fraction * len(node_ids))
        corrupted = rng.choice(node_ids, size=t, replace=False) if t else []
        # Corruption order is remembered so fraction ramps can shrink the
        # set deterministically (most recently corrupted nodes heal first).
        self._corruption_order: list[int] = [int(x) for x in corrupted]
        self.corrupted: set[int] = set(self._corruption_order)
        self.offline: set[int] = set(
            int(x)
            for x in self.rng.choice(
                sorted(self.corrupted),
                size=int(config.offline_fraction * len(self.corrupted)),
                replace=False,
            )
        ) if self.corrupted and config.offline_fraction > 0 else set()
        # Scenario-driven offline windows (crash/churn injection), replaced
        # wholesale each round by the scenario driver.
        self.forced_offline: set[int] = set()

    # -- membership --------------------------------------------------------
    def is_corrupted(self, node_id: int) -> bool:
        return node_id in self.corrupted

    @property
    def count(self) -> int:
        return len(self.corrupted)

    # -- behaviour assignment ------------------------------------------------
    def leader_behavior(self, node_id: int) -> Behavior:
        if node_id not in self.corrupted:
            return HonestBehavior()
        cls = BEHAVIOR_REGISTRY[self.config.leader_strategy]
        try:
            return cls(**self.config.strategy_kwargs)
        except TypeError:
            return cls()

    def voter_behavior(self, node_id: int) -> Behavior:
        if node_id not in self.corrupted:
            return HonestBehavior()
        return BEHAVIOR_REGISTRY[self.config.voter_strategy]()

    def is_offline(self, node_id: int) -> bool:
        return node_id in self.offline or node_id in self.forced_offline

    # -- scenario reconfiguration -------------------------------------------
    def force_offline(self, node_ids: "set[int] | frozenset[int] | list[int]") -> None:
        """Replace the injected offline set (crash/churn windows).

        Unlike :attr:`offline` this is orthogonal to corruption: any node —
        honest or Byzantine — can be knocked out by an infrastructure
        fault.  Passing an empty collection ends the window.
        """
        self.forced_offline = {int(n) for n in node_ids}

    def retarget_fraction(self, fraction: float) -> None:
        """Mid-run corruption retargeting for adversary-fraction ramps.

        Growing the target corrupts additional nodes drawn from the
        controller's own RNG stream (deterministic per seed and call
        sequence); shrinking heals the most recently corrupted first.  The
        round-boundary call site preserves the paper's mild adaptivity —
        corruption never changes inside a round.
        """
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("fraction must be in [0, 1]")
        target = int(fraction * len(self.all_ids))
        if target > len(self._corruption_order):
            pool = sorted(set(self.all_ids) - set(self._corruption_order))
            extra = self.rng.choice(
                pool, size=target - len(self._corruption_order), replace=False
            )
            self._corruption_order.extend(int(x) for x in extra)
        elif target < len(self._corruption_order):
            del self._corruption_order[target:]
        self.corrupted = set(self._corruption_order)
        self.offline &= self.corrupted

    def retarget_nodes(self, node_ids: Iterable[int]) -> None:
        """Wholesale corruption replacement onto an explicit target list.

        Strategic policies (:mod:`repro.scenarios.policies`) compute their
        own targets from published round state, so unlike
        :meth:`retarget_fraction` this draws nothing from the controller's
        RNG stream — seed-paired arms with and without a policy keep
        byte-identical randomness everywhere else.  Order is preserved
        (first target = corrupted longest) and duplicates collapse; like
        every retarget, the round-boundary call site preserves mild
        adaptivity.
        """
        order: list[int] = []
        seen: set[int] = set()
        known = set(self.all_ids)
        for node_id in node_ids:
            node_id = int(node_id)
            if node_id not in known:
                raise ValueError(f"cannot corrupt unknown node id {node_id}")
            if node_id not in seen:
                seen.add(node_id)
                order.append(node_id)
        self._corruption_order = order
        self.corrupted = set(order)
        self.offline &= self.corrupted
