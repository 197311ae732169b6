"""Scenario container, event codec and the driver that binds a scenario to
a running ledger.

A :class:`Scenario` is a run's whole fault timeline: a named, declarative,
JSON-serialisable tuple of scheduled events
(:mod:`repro.scenarios.events`) and at most one state-observing adversary
policy (:mod:`repro.scenarios.policies`).  The :class:`ScenarioDriver`
turns it into live behaviour by subscribing to the orchestrator's phase
pipeline:

* at the **round pre-hook** (before roles are assigned) it applies
  adversary-fraction ramps, computes this round's injected offline set
  (leader crashes, churn windows) on the
  :class:`~repro.nodes.adversary.AdversaryController`, and then lets the
  policy re-aim the corruption budget;
* at the **config phase pre-hook** (after the per-round network reset,
  before any message flows) it installs partitions and latency spikes on
  the :class:`~repro.net.simulator.Network`, and then lets the policy
  override behaviours or cut the network for this round.

The driver draws randomness only from its own spawned RNG sub-stream, so
attaching a scenario never perturbs the protocol, workload, adversary
lottery, or jitter streams — and a (seed, scenario) pair replays exactly.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.core.pipeline import PRE
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

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.backend import CommitteeSimBackend
    from repro.core.structures import RoundContext

EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        Partition,
        LatencySpike,
        LeaderCrash,
        AdversaryRamp,
        Churn,
        LeaderboardCorruption,
        QuorumWithholding,
        RefereeEclipse,
        TargetedCensorship,
    )
}


def _tuplify(value: Any) -> Any:
    """Recursively turn lists back into tuples (JSON round-trip)."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def event_to_dict(event: Any) -> dict[str, Any]:
    """JSON-ready rendering of one event (kind tag plus its fields)."""
    if type(event) not in EVENT_TYPES.values():
        raise TypeError(f"not a scenario event: {event!r}")
    return {"kind": event.kind, **asdict(event)}


def event_from_dict(data: Mapping[str, Any]) -> Any:
    """Rebuild an event from :func:`event_to_dict` output (JSON round-trip).
    Hand-written files are the expected input, so a missing or misspelt
    field fails here by name, not as a ``TypeError`` from the constructor."""
    payload = dict(data)
    if "kind" not in payload:
        raise ValueError("event is missing 'kind'")
    kind = payload.pop("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    declared = fields(cls)
    unknown = sorted(payload.keys() - {f.name for f in declared})
    if unknown:
        raise ValueError(f"{kind}: unknown field {unknown[0]!r}")
    for f in declared:
        if f.default is MISSING and f.name not in payload:
            raise ValueError(f"{kind}: missing field {f.name!r}")
    return cls(**{key: _tuplify(value) for key, value in payload.items()})


@dataclass(frozen=True)
class Scenario:
    """A named fault timeline: scheduled events plus at most one policy."""

    name: str
    events: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        policies = [
            e.kind for e in self.events if isinstance(e, AdversaryPolicy)
        ]
        if len(policies) > 1:
            # Two policies would re-aim the same corruption budget twice a
            # round with order-dependent results.
            raise ValueError(
                f"scenario {self.name!r}: at most one adversary policy per "
                f"scenario, got {policies}"
            )

    @property
    def last_event_round(self) -> int:
        """Last round any event is active — runs should go past it to show
        recovery."""
        return max((e.last_active_round for e in self.events), default=0)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "events": [event_to_dict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output; malformed input
        fails naming the scenario, the event and the field."""
        for key in ("name", "events"):
            if key not in data:
                raise ValueError(f"scenario is missing {key!r}")
        events = []
        for index, event in enumerate(data["events"]):
            try:
                events.append(event_from_dict(event))
            except ValueError as exc:
                raise ValueError(
                    f"scenario {data['name']!r}: event {index}: {exc}"
                ) from None
        return cls(name=data["name"], events=tuple(events))


class ScenarioDriver:
    """Applies one :class:`Scenario` to one backend via pipeline hooks."""

    def __init__(self, scenario: Scenario, rng: np.random.Generator) -> None:
        self.scenario = scenario
        self.rng = rng
        self._policy: AdversaryPolicy | None = next(
            (e for e in scenario.events if isinstance(e, AdversaryPolicy)),
            None,
        )
        self._crashed_until: dict[int, int] = {}  # node id -> last crash round
        # The corruption order the policy found at its first strike, put
        # back once (the heal round) after its window closes.
        self._baseline: list[int] | None = None
        self._healed = False
        #: Human-readable record of every applied action (for CLI/tests),
        #: in the order the actions happened.
        self.log: list[str] = []
        self._ledger = None  # bound at install time

    def note(self, round_number: int, line: str) -> None:
        """Record one applied action.  Each line is stamped with the
        continuous cross-round sim clock (``Network.global_now``), so fault
        timelines read as one run, not as per-round fragments that all
        start at t=0."""
        self.log.append(
            f"t={self._ledger.net.global_now:.1f} r{round_number}: {line}"
        )

    @property
    def adversary(self) -> Any:
        """The bound ledger's adversary controller."""
        return self._ledger.adversary

    # -- wiring ------------------------------------------------------------
    def install(self, ledger: "CommitteeSimBackend") -> None:
        """Attach this driver's fault hooks to ``ledger``'s pipeline (a
        pipeline accepts exactly one driver)."""
        pipeline = ledger.pipeline
        if pipeline.scenario_driver is not None:
            # Hooks are append-only: a second driver on the same pipeline
            # would double-apply offline draws and ramps and silently break
            # seed determinism.
            raise ValueError(
                "pipeline already has a scenario driver installed; give "
                "each scenario-bearing ledger its own pipeline"
            )
        self._validate_targets(ledger.params.m, ledger.params.n)
        self._ledger = ledger
        pipeline.scenario_driver = self
        first_phase = pipeline.names[0]
        pipeline.add_round_hook(PRE, self._on_round_start)
        pipeline.add_phase_hook(first_phase, PRE, self._on_config_pre)

    def _validate_targets(self, m: int, n: int) -> None:
        """Hand-written scenario files are the expected use-case: an
        out-of-range committee index or node id, or one listed in two
        partition groups, should fail at attach time with a clear message,
        not as an IndexError mid-round (or worse, a silent no-op partition
        of nonexistent nodes)."""
        committees = ("committees", "committee indices", "m", m)
        nodes = ("nodes", "node ids", "n", n)
        for event in self.scenario.events:
            if isinstance(event, LeaderCrash):
                groups, target = (event.committees,), committees
            elif isinstance(event, Partition) and event.nodes is not None:
                groups, target = event.nodes, nodes
            elif isinstance(event, Partition) and event.committees != HALVES:
                groups, target = event.committees, committees
            else:
                continue
            field, what, letter, bound = target
            where = f"scenario {self.scenario.name!r}: {event.kind}.{field}"
            seen: set[int] = set()
            for group in groups:
                bad = sorted(i for i in group if not 0 <= i < bound)
                if bad:
                    raise ValueError(
                        f"{where}: {what} {bad} out of range for "
                        f"{letter}={bound}"
                    )
                twice = sorted(seen.intersection(group))
                if twice:
                    raise ValueError(f"{where}: {what} {twice} in two groups")
                seen.update(group)

    # -- round boundary: adversary & offline reconfiguration ----------------
    def _on_round_start(self, ledger: "CommitteeSimBackend") -> None:
        round_number = ledger.round_number
        for event in self.scenario.events:
            if isinstance(event, AdversaryRamp) and event.active(round_number):
                fraction = event.fraction_at(round_number)
                ledger.adversary.retarget_fraction(fraction)
                self.note(
                    round_number, f"adversary fraction -> {fraction:.3f}"
                )
        offline = self._offline_this_round(ledger, round_number)
        ledger.adversary.force_offline(offline)
        if offline:
            self.note(round_number, f"forced offline {sorted(offline)}")
        policy = self._policy
        if policy is None:
            return
        if policy.active(round_number):
            targets = policy.corruption_targets(ledger)
            if targets is not None:
                if self._baseline is None:
                    # First strike: remember the configured corruption so
                    # the window's close restores it (the heal round).
                    self._baseline = list(ledger.adversary._corruption_order)
                ledger.adversary.retarget_nodes(targets)
                self.note(
                    round_number, f"{policy.kind} corrupts {sorted(targets)}"
                )
        elif (
            round_number > policy.last_active_round
            and self._baseline is not None
            and not self._healed
        ):
            ledger.adversary.retarget_nodes(self._baseline)
            self._healed = True
            self.note(
                round_number,
                f"{policy.kind} window closed; corruption restored to "
                f"{sorted(self._baseline)}",
            )

    def _offline_this_round(
        self, ledger: "CommitteeSimBackend", round_number: int
    ) -> set[int]:
        offline: set[int] = set()
        for event in self.scenario.events:
            if isinstance(event, LeaderCrash) and event.round == round_number:
                for committee_index in event.committees:
                    pk = ledger._next_leaders[committee_index]
                    node_id = ledger._node_id(pk)
                    self._crashed_until[node_id] = (
                        round_number + event.duration - 1
                    )
                    self.note(
                        round_number,
                        f"crash leader-elect {node_id} "
                        f"of committee {committee_index}",
                    )
            elif isinstance(event, Churn) and event.active(round_number):
                count = int(event.offline_fraction * len(ledger.nodes))
                if count:
                    picks = self.rng.choice(
                        sorted(ledger.nodes), size=count, replace=False
                    )
                    offline |= {int(x) for x in picks}
        # Crash windows that ended are forgotten here, so the membership
        # check stays O(active crashes).
        self._crashed_until = {
            node_id: until
            for node_id, until in self._crashed_until.items()
            if round_number <= until
        }
        return offline | self._crashed_until.keys()

    # -- first phase: network fault installation ----------------------------
    def _on_config_pre(self, ctx: "RoundContext", phase_name: str) -> None:
        round_number = ctx.round_number
        for event in self.scenario.events:
            if isinstance(event, Partition) and event.active(round_number):
                groups = self._resolve_partition(event, ctx)
                ctx.net.set_partitions(groups)
                self.note(
                    round_number, f"partition {[sorted(g) for g in groups]}"
                )
            elif isinstance(event, LatencySpike) and event.active(round_number):
                ctx.net.add_link_degradation(
                    event.factor, channels=event.channels
                )
                self.note(
                    round_number,
                    f"latency x{event.factor:g} "
                    f"on {list(event.channels) if event.channels else 'all'}",
                )
        policy = self._policy
        if policy is not None and policy.active(round_number):
            policy.apply(ctx, self)

    def _resolve_partition(
        self, event: Partition, ctx: "RoundContext"
    ) -> list[set[int]]:
        if event.nodes is not None:
            groups = [set(group) for group in event.nodes]
        else:
            committees = event.committees
            if committees == HALVES:
                indices = list(range(len(ctx.committees)))
                half = max(1, len(indices) // 2)
                committees = (tuple(indices[:half]), tuple(indices[half:]))
            groups = []
            for group_indices in committees:
                group: set[int] = set()
                for committee_index in group_indices:
                    group |= set(ctx.committees[committee_index].members)
                groups.append(group)
        # Referee placement applies in both modes, but only to referee
        # members the groups did not already claim explicitly.
        listed: set[int] = set().union(*groups) if groups else set()
        referee = set(ctx.referee) - listed
        if event.isolate_referee:
            groups.append(referee)
        elif groups:
            groups[0] |= referee
        return [g for g in groups if g]
