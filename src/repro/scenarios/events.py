"""Declarative fault-injection event vocabulary.

Each event is a frozen dataclass with a ``kind`` tag and a round window;
scenarios are tuples of events, applied by the
:class:`~repro.scenarios.scenario.ScenarioDriver` at pipeline hooks.  All
round windows are inclusive at both ends and 1-based (round numbers as the
orchestrator counts them).  Events carry no callables and no live state, so
a scenario serialises to canonical JSON and travels through the experiment
engine's process pool unchanged.

Determinism: every event is either fully explicit (rounds, committee
indices, factors) or draws from the scenario's own spawned RNG sub-stream
(:class:`Churn`), so a (seed, scenario) pair always replays the exact same
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

from repro.net.params import ChannelClass

#: Sentinel for :attr:`Partition.committees`: split the committee indices
#: into two halves at runtime (presets cannot know ``m`` up front).
HALVES = "halves"


def _require_int(event: Any, *fields: str) -> None:
    """Rounds and durations are compared with ``==`` against the round
    counter, so a float would be accepted and then never fire."""
    for name in fields:
        value = getattr(event, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(
                f"{event.kind}.{name} must be an integer, got {value!r}"
            )


@dataclass(frozen=True)
class WindowedEvent:
    """Common shape of events active over an inclusive round window."""

    start_round: int
    end_round: int

    def __post_init__(self) -> None:
        _require_int(self, "start_round", "end_round")
        if self.start_round < 1:
            raise ValueError("rounds are 1-based")
        if self.end_round < self.start_round:
            raise ValueError("end_round must be >= start_round")

    def active(self, round_number: int) -> bool:
        """Whether this event applies in ``round_number`` (inclusive window)."""
        return self.start_round <= round_number <= self.end_round

    @property
    def last_active_round(self) -> int:
        """The last round this event can still act in."""
        return self.end_round


@dataclass(frozen=True)
class Partition(WindowedEvent):
    """Cut the network between committee (or explicit node) groups for a
    window of rounds.

    Exactly one of ``committees``/``nodes`` describes the cut:

    * ``committees`` — groups of committee *indices*, resolved to member
      node ids each round after role assignment (so the cut follows the
      committees as membership rotates), or the string ``"halves"`` to
      split the committee range in two;
    * ``nodes`` — explicit node-id groups, applied verbatim.

    The referee committee joins group 0 unless ``isolate_referee`` puts it
    in a group of its own (a much harsher fault: nobody can finalise).
    """

    kind: ClassVar[str] = "partition"

    committees: tuple[tuple[int, ...], ...] | str | None = None
    nodes: tuple[tuple[int, ...], ...] | None = None
    isolate_referee: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.committees is None) == (self.nodes is None):
            raise ValueError("give exactly one of committees/nodes")
        if isinstance(self.committees, str) and self.committees != HALVES:
            raise ValueError(f"unknown committee split {self.committees!r}")


@dataclass(frozen=True)
class LatencySpike(WindowedEvent):
    """Multiply link delays by ``factor`` for a window of rounds.

    ``channels`` restricts the spike to channel classes (default: all).
    Values above the model's synchrony bounds are intentional — this is an
    infrastructure fault, not the in-model adversary.
    """

    kind: ClassVar[str] = "latency_spike"

    factor: float
    channels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1")
        for channel in self.channels or ():
            if channel not in ChannelClass.ALL:
                raise ValueError(
                    f"unknown channel class {channel!r}; one of {ChannelClass.ALL}"
                )


@dataclass(frozen=True)
class LeaderCrash:
    """Crash the incoming leaders of the given committees.

    At the start of ``round`` the nodes slated to lead the listed
    committees are taken offline for ``duration`` rounds (then recover).
    The partial set prosecutes the silent leader (Alg. 6), so this is the
    canonical recovery-latency probe.
    """

    kind: ClassVar[str] = "leader_crash"

    round: int
    committees: tuple[int, ...]
    duration: int = 1

    def __post_init__(self) -> None:
        _require_int(self, "round", "duration")
        if self.round < 1:
            raise ValueError("rounds are 1-based")
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if not self.committees:
            raise ValueError("name at least one committee")

    @property
    def last_active_round(self) -> int:
        """The last round a crashed leader is still forced offline."""
        return self.round + self.duration - 1


@dataclass(frozen=True)
class AdversaryRamp(WindowedEvent):
    """Linearly ramp the corrupted fraction across a window of rounds.

    At each round boundary in the window the controller is retargeted to
    the interpolated fraction; outside the window the fraction stays at
    whatever the ramp last set (ramps do not auto-heal — chain a second
    ramp down if the scenario should recover).
    """

    kind: ClassVar[str] = "adversary_ramp"

    start_fraction: float
    end_fraction: float

    def __post_init__(self) -> None:
        super().__post_init__()
        for fraction in (self.start_fraction, self.end_fraction):
            if not (0.0 <= fraction <= 1.0):
                raise ValueError("fractions must be in [0, 1]")

    def fraction_at(self, round_number: int) -> float:
        """The interpolated corrupted fraction this round (clamped to the
        ramp window's endpoints)."""
        if self.end_round == self.start_round:
            return self.end_fraction
        progress = (round_number - self.start_round) / (
            self.end_round - self.start_round
        )
        progress = min(max(progress, 0.0), 1.0)
        return self.start_fraction + progress * (
            self.end_fraction - self.start_fraction
        )


@dataclass(frozen=True)
class Churn(WindowedEvent):
    """Node churn: each round in the window a fresh random
    ``offline_fraction`` of all nodes is offline (drawn from the scenario
    RNG stream, so the same seed churns the same nodes)."""

    kind: ClassVar[str] = "churn"

    offline_fraction: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.offline_fraction < 1.0):
            raise ValueError("offline_fraction must be in [0, 1)")
