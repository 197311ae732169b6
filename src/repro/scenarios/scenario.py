"""Scenario container and the driver that binds it to a running ledger.

A :class:`Scenario` is a named, declarative, JSON-serialisable timeline of
fault-injection events.  The :class:`ScenarioDriver` turns it into live
behaviour by subscribing to the orchestrator's phase pipeline:

* at the **round pre-hook** (before roles are assigned) it applies
  adversary-fraction ramps and computes this round's injected offline set
  (leader crashes, churn windows) on the
  :class:`~repro.nodes.adversary.AdversaryController`;
* at the **config phase pre-hook** (after the per-round network reset,
  before any message flows) it installs partitions and latency spikes on
  the :class:`~repro.net.simulator.Network`.

The driver draws randomness only from its own spawned RNG sub-stream, so
attaching a scenario never perturbs the protocol, workload, adversary
lottery, or jitter streams — and a (seed, scenario) pair replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.core.pipeline import POST, PRE
from repro.scenarios.events import (
    HALVES,
    AdversaryRamp,
    Churn,
    LatencySpike,
    LeaderCrash,
    Partition,
    event_from_dict,
    event_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.backend import CommitteeSimBackend, SimRoundReport
    from repro.core.structures import RoundContext


@dataclass(frozen=True)
class Scenario:
    """A named timeline of fault-injection events."""

    name: str
    events: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        object.__setattr__(
            self,
            "_last_round",
            max((e.last_active_round for e in self.events), default=0),
        )

    @property
    def last_event_round(self) -> int:
        """Last round any event is active — runs should go past it to show
        recovery."""
        return self._last_round

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "events": [event_to_dict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            events=tuple(event_from_dict(e) for e in data["events"]),
        )


class ScenarioDriver:
    """Applies one :class:`Scenario` to one backend via pipeline hooks."""

    def __init__(self, scenario: Scenario, rng: np.random.Generator) -> None:
        self.scenario = scenario
        self.rng = rng
        self._crashed_until: dict[int, int] = {}  # node id -> last crash round
        #: Human-readable record of every applied action (for CLI/tests).
        #: Each line is stamped with the continuous cross-round sim clock
        #: (``Network.global_now``), so fault timelines read as one run,
        #: not as per-round fragments that all start at t=0.
        self.log: list[str] = []
        self._net = None  # bound at install time, for log timestamps

    def _stamp(self, line: str) -> str:
        """Prefix a log line with the continuous sim-clock timestamp."""
        if self._net is None:
            return line
        return f"t={self._net.global_now:.1f} {line}"

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
        self._net = ledger.net
        pipeline.scenario_driver = self
        first_phase = pipeline.names[0]
        pipeline.add_round_hook(PRE, self._on_round_start)
        pipeline.add_phase_hook(first_phase, PRE, self._on_config_pre)
        pipeline.add_round_hook(POST, self._on_round_end)

    def _validate_targets(self, m: int, n: int) -> None:
        """Hand-written scenario files are the expected use-case: an
        out-of-range committee index or node id should fail at attach time
        with a clear message, not as an IndexError mid-round (or worse, a
        silent no-op partition of nonexistent nodes)."""
        for event in self.scenario.events:
            indices: tuple[int, ...] = ()
            if isinstance(event, LeaderCrash):
                indices = event.committees
            elif isinstance(event, Partition):
                if isinstance(event.committees, tuple):
                    indices = tuple(
                        i for group in event.committees for i in group
                    )
                elif event.nodes is not None:
                    bad_nodes = sorted(
                        i
                        for group in event.nodes
                        for i in group
                        if not 0 <= i < n
                    )
                    if bad_nodes:
                        raise ValueError(
                            f"scenario {self.scenario.name!r}: node ids "
                            f"{bad_nodes} out of range for n={n}"
                        )
            bad = sorted(i for i in indices if not 0 <= i < m)
            if bad:
                raise ValueError(
                    f"scenario {self.scenario.name!r}: committee indices "
                    f"{bad} out of range for m={m}"
                )

    # -- round boundary: adversary & offline reconfiguration ----------------
    def _on_round_start(self, ledger: "CommitteeSimBackend") -> None:
        round_number = ledger.round_number
        for event in self.scenario.events:
            if isinstance(event, AdversaryRamp) and event.active(round_number):
                fraction = event.fraction_at(round_number)
                ledger.adversary.retarget_fraction(fraction)
                self.log.append(self._stamp(
                    f"r{round_number}: adversary fraction -> {fraction:.3f}"
                ))
        offline = self._offline_this_round(ledger, round_number)
        ledger.adversary.force_offline(offline)
        if offline:
            self.log.append(
                self._stamp(f"r{round_number}: forced offline {sorted(offline)}")
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
                    self.log.append(self._stamp(
                        f"r{round_number}: crash leader-elect {node_id} "
                        f"of committee {committee_index}"
                    ))
            elif isinstance(event, Churn) and event.active(round_number):
                count = int(event.offline_fraction * len(ledger.nodes))
                if count:
                    picks = self.rng.choice(
                        sorted(ledger.nodes), size=count, replace=False
                    )
                    offline |= {int(x) for x in picks}
        offline |= {
            node_id
            for node_id, until in self._crashed_until.items()
            if round_number <= until
        }
        return offline

    # -- first phase: network fault installation ----------------------------
    def _on_config_pre(self, ctx: "RoundContext", phase_name: str) -> None:
        round_number = ctx.round_number
        for event in self.scenario.events:
            if isinstance(event, Partition) and event.active(round_number):
                groups = self._resolve_partition(event, ctx)
                ctx.net.set_partitions(groups)
                self.log.append(self._stamp(
                    f"r{round_number}: partition "
                    f"{[sorted(g) for g in groups]}"
                ))
            elif isinstance(event, LatencySpike) and event.active(round_number):
                ctx.net.add_link_degradation(
                    event.factor, channels=event.channels
                )
                self.log.append(self._stamp(
                    f"r{round_number}: latency x{event.factor:g} "
                    f"on {list(event.channels) if event.channels else 'all'}"
                ))

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

    # -- round end ----------------------------------------------------------
    def _on_round_end(
        self, ledger: "CommitteeSimBackend", report: "SimRoundReport"
    ) -> None:
        # Crash windows that ended are forgotten so the log stays readable
        # and membership checks stay O(active crashes).
        expired = [
            node_id
            for node_id, until in self._crashed_until.items()
            if until < ledger.round_number
        ]
        for node_id in expired:
            del self._crashed_until[node_id]
