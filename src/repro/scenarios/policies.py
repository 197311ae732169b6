"""Strategic, state-observing adversary policies.

The other scenario events (:mod:`repro.scenarios.events`) are *schedules*:
they name rounds and targets up front.  Policy events are *strategies*:
each round the :class:`~repro.scenarios.scenario.ScenarioDriver` lets the
scenario's policy (at most one per scenario) read the ledger's published
state — the reputation leaderboard, the staged leaders, this round's
committee rosters — and decide where to strike.  This is still the paper's
mildly-adaptive adversary (§III-C): decisions use only state published by
round ``r - 1`` and take effect at the round-``r`` boundary, never inside a
round.

Four policies ship:

* :class:`LeaderboardCorruption` — re-aims the corruption budget at the
  top of the reputation leaderboard (and the staged leaders) every round;
* :class:`QuorumWithholding` — corrupted members act honest until the
  round where their withheld votes are pivotal for a committee's quorum;
* :class:`RefereeEclipse` — partitions the current referee committee away
  from everyone else, following its rotating membership;
* :class:`TargetedCensorship` — corrupts the staged leaders and has them
  censor transactions (:class:`~repro.nodes.behaviors.CensoringLeader`).

Policies are frozen dataclasses over an inclusive round window and are
events like any other: they sit in a scenario's ``events``, serialise
through the one event codec, and ship as single-event presets, so a
seed-paired ``scenario_grid`` sweep compares a policy-bearing arm with the
policy-free one.

Determinism: policies compute targets from published round state with
explicit tie-breaks and draw **nothing** from any RNG stream, so a (seed,
scenario) pair replays exactly and the rounds before the first strike are
byte-identical to the policy-free run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

from repro.nodes.behaviors import (
    CensoringLeader,
    HonestBehavior,
    QuorumWithholder,
)
from repro.scenarios.events import WindowedEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.structures import CommitteeSpec, RoundContext
    from repro.scenarios.scenario import ScenarioDriver


@dataclass(frozen=True)
class AdversaryPolicy(WindowedEvent):
    """Common shape of adversary policies: an inclusive round window plus
    two optional decision hooks the scenario driver calls.

    ``corruption_targets`` runs at the round pre-hook (before role
    assignment) and may return the node ids the corruption budget should
    move to; ``apply`` runs at the first phase's pre-hook (after role
    assignment and the per-round network reset) and may override behaviours
    or install network cuts for this round.
    """

    def corruption_targets(self, ledger: Any) -> list[int] | None:
        """Node ids to corrupt this round, or ``None`` to leave corruption
        untouched.  Called only in active rounds."""
        return None

    def apply(self, ctx: "RoundContext", driver: "ScenarioDriver") -> None:
        """Committee-aware action for this round (behaviour overrides,
        partitions).  Called only in active rounds."""


def _leaderboard(ledger: Any) -> list[int]:
    """Node ids ordered by published reputation, highest first, ties broken
    by node id so the ranking is total and deterministic."""
    ranked = sorted(
        ledger.reputation.items(),
        key=lambda item: (-item[1], ledger._node_id(item[0])),
    )
    return [ledger._node_id(pk) for pk, _rep in ranked]


def _staged_leader_ids(ledger: Any) -> list[int]:
    """Node ids of the leaders staged for the coming round (published in
    the previous round's block, so fair game for a mildly-adaptive
    adversary)."""
    return [ledger._node_id(pk) for pk in ledger._next_leaders]


def _within_budget(
    ledger: Any, budget_fraction: float, *pools: list[int]
) -> list[int]:
    """Walk ``pools`` in order, keep each node id the first time it shows
    up, and stop at ``budget_fraction`` of all nodes."""
    budget = int(budget_fraction * len(ledger.nodes))
    return list(dict.fromkeys(nid for pool in pools for nid in pool))[:budget]


@dataclass(frozen=True)
class LeaderboardCorruption(AdversaryPolicy):
    """Adaptive corruption that chases the reputation leaderboard.

    Each active round the corruption budget (``budget_fraction`` of all
    nodes) is re-aimed at the staged leaders (when ``include_leaders``)
    followed by the highest-reputation remaining nodes.  Under CycLedger's
    reputation-ranked leader selection this doubles as an attack on *next*
    round's leadership, which is exactly why the paper's incentive layer
    must keep honest reputation ahead of the adversary's.
    """

    kind: ClassVar[str] = "leaderboard_corruption"

    budget_fraction: float = 0.25
    include_leaders: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.budget_fraction <= 1.0):
            raise ValueError("budget_fraction must be in [0, 1]")

    def corruption_targets(self, ledger: Any) -> list[int]:
        """Staged leaders first (optional), then the leaderboard, truncated
        to the corruption budget."""
        leaders = _staged_leader_ids(ledger) if self.include_leaders else []
        return _within_budget(
            ledger, self.budget_fraction, leaders, _leaderboard(ledger)
        )


@dataclass(frozen=True)
class QuorumWithholding(AdversaryPolicy):
    """Sleeper agents that withhold votes exactly at quorum boundaries.

    Corrupted nodes behave honestly ("sleepers") except in committees where
    the withheld participation is *pivotal*: with ``c`` members and a
    majority quorum of ``need = c // 2 + 1``, a committee is pivotal when
    its honestly-acting online members alone miss the quorum but would
    reach it with the corrupted members' help.  Only then do the corrupted
    non-leader members switch to
    :class:`~repro.nodes.behaviors.QuorumWithholder`, killing the round's
    consensus while revealing nothing in committees with slack.

    The majority rule is exact for CycLedger (Alg. 3) and RapidChain;
    OmniLedger's BFT accept needs a > 2/3 supermajority, so there the
    boundary test is conservative — the policy withholds in a subset of the
    truly pivotal rounds (committees already below 2/3 fail without help).

    With ``budget_fraction > 0`` the policy also re-aims corruption each
    round at the highest-reputation nodes that are *not* staged leaders
    (withholders must sit among the voters); with the default ``0.0`` it
    drives whatever corruption the run's
    :class:`~repro.nodes.adversary.AdversaryConfig` provides.
    """

    kind: ClassVar[str] = "quorum_withholding"

    budget_fraction: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.budget_fraction <= 1.0):
            raise ValueError("budget_fraction must be in [0, 1]")

    def corruption_targets(self, ledger: Any) -> list[int] | None:
        """Top-reputation non-leader nodes up to the budget (or ``None``
        when the policy rides an externally configured adversary)."""
        if self.budget_fraction == 0.0:
            return None
        leaders = set(_staged_leader_ids(ledger))
        ranked = [nid for nid in _leaderboard(ledger) if nid not in leaders]
        return _within_budget(ledger, self.budget_fraction, ranked)

    @staticmethod
    def _pivotal(
        spec: "CommitteeSpec", ctx: "RoundContext", corrupted: set[int]
    ) -> tuple[bool, list[int]]:
        """Whether withholding flips this committee, and the members that
        would withhold (corrupted, online, non-leader)."""
        withholders = [
            member
            for member in spec.members
            if member in corrupted
            and member != spec.leader
            and ctx.nodes[member].online
        ]
        reliable = sum(
            1
            for member in spec.members
            if ctx.nodes[member].online
            and (member not in corrupted or member == spec.leader)
        )
        need = len(spec.members) // 2 + 1
        return reliable < need <= reliable + len(withholders), withholders

    def apply(self, ctx: "RoundContext", driver: "ScenarioDriver") -> None:
        """Sleepers everywhere, withholders only where pivotal."""
        corrupted = driver.adversary.corrupted
        for node_id in corrupted:
            ctx.nodes[node_id].behavior = HonestBehavior()
        for spec in ctx.committees:
            pivotal, withholders = self._pivotal(spec, ctx, corrupted)
            if pivotal:
                for member in withholders:
                    ctx.nodes[member].behavior = QuorumWithholder()
                driver.note(
                    ctx.round_number,
                    f"quorum withholding in committee {spec.index}: "
                    f"{sorted(withholders)} go silent",
                )


@dataclass(frozen=True)
class RefereeEclipse(AdversaryPolicy):
    """Partition the referee committee away from the rest of the network.

    The cut is recomputed from this round's actual referee membership, so
    it follows the rotating lottery — an *adaptive* eclipse, unlike the
    static node groups of a scenario :class:`~repro.scenarios.events.Partition`.
    Per-round network resets heal the cut automatically once the window
    closes.
    """

    kind: ClassVar[str] = "referee_eclipse"

    def apply(self, ctx: "RoundContext", driver: "ScenarioDriver") -> None:
        """Isolate this round's referee members in their own partition."""
        referee = set(ctx.referee)
        ctx.net.set_partitions([referee])
        driver.note(
            ctx.round_number, f"eclipse referee committee {sorted(referee)}"
        )


@dataclass(frozen=True)
class TargetedCensorship(AdversaryPolicy):
    """Corrupt the staged leaders and have them censor transactions.

    Each active round the corruption budget moves onto the staged leaders
    (plus leaderboard fill-up), and every corrupted node that actually
    leads a committee runs
    :class:`~repro.nodes.behaviors.CensoringLeader` keeping only
    ``keep_fraction`` of the majority-Yes transactions.  CycLedger commits
    the censored remainder and leaves a provable trail; the rival backends
    model any malicious leader as a dead committee, so the same policy is
    strictly harsher there.
    """

    kind: ClassVar[str] = "censorship"

    keep_fraction: float = 0.25
    budget_fraction: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.keep_fraction <= 1.0):
            raise ValueError("keep_fraction must be in [0, 1]")
        if not (0.0 <= self.budget_fraction <= 1.0):
            raise ValueError("budget_fraction must be in [0, 1]")

    def corruption_targets(self, ledger: Any) -> list[int]:
        """Staged leaders, then leaderboard fill-up, within budget."""
        return _within_budget(
            ledger,
            self.budget_fraction,
            _staged_leader_ids(ledger),
            _leaderboard(ledger),
        )

    def apply(self, ctx: "RoundContext", driver: "ScenarioDriver") -> None:
        """Corrupted committee leaders censor; other corrupted nodes keep
        their configured strategies."""
        censoring = []
        for spec in ctx.committees:
            if spec.leader in driver.adversary.corrupted:
                ctx.nodes[spec.leader].behavior = CensoringLeader(
                    keep_fraction=self.keep_fraction
                )
                censoring.append(spec.index)
        if censoring:
            driver.note(
                ctx.round_number,
                f"censoring leaders in committees {censoring} "
                f"(keep {self.keep_fraction:g})",
            )
