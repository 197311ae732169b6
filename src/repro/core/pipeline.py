"""Composable phase pipeline for round orchestration.

The paper fixes the phase order (§III-E: committee configuration →
semi-commitment → intra/inter consensus → reputation → selection → block
generation), but the orchestrator should not hard-code it: scenario
injection, instrumentation, and future protocol variants all want to attach
to phase boundaries without forking ``run_round``.  A :class:`Phase` wraps
one phase executor behind the uniform ``run(ctx) -> report`` interface; a
:class:`PhasePipeline` holds them in order, runs pre/post hooks around each
one, and records per-phase simulated-time spans.

Hooks come in two granularities:

* **phase hooks** — ``hook(ctx, phase_name)`` before/after one named phase;
  this is where the scenario driver installs network partitions and link
  degradations (the fabric is reset per round, so effects must be
  re-applied after the reset and before the first phase runs);
* **round hooks** — ``hook(ledger)`` before role assignment and
  ``hook(ledger, report)`` after the round report is assembled; this is
  where per-round reconfiguration (adversary ramps, crash/churn offline
  windows) happens, since those must land before committees are drawn.

Timings use the network's simulated clock, never the wall clock, so a
:class:`~repro.core.backend.SimRoundReport` stays byte-identical across
runs of the same seed.

Phases additionally carry **data-dependency annotations** (``needs`` for
same-round inputs, ``needs_prev`` for previous-round inputs).  The
:class:`OverlapScheduler` composes each round's measured phase spans into a
continuous end-to-end timeline on those annotations: in ``none`` mode
rounds serialize (the historical model), while in ``semicommit`` mode a
phase whose ``needs_prev`` names specific previous-round phases may start
as soon as those finish — which lets round r+1's committee-configuration +
semi-commitment prefix run concurrently (in sim time) with round r's
block-generation suffix, the paper's signature pipelining claim (§III-E,
§V).  The scheduler only re-times what already ran; execution order, RNG
consumption and final state are identical in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.backend import CommitteeSimBackend, SimRoundReport
    from repro.core.structures import RoundContext

PhaseFn = Callable[["RoundContext"], Any]
PhaseHook = Callable[["RoundContext", str], None]
RoundStartHook = Callable[["CommitteeSimBackend"], None]
RoundEndHook = Callable[["CommitteeSimBackend", "SimRoundReport"], None]

PRE = "pre"
POST = "post"

#: Overlap modes understood by :class:`OverlapScheduler` (and by
#: ``ProtocolParams.overlap``).
OVERLAP_NONE = "none"
OVERLAP_SEMICOMMIT = "semicommit"
OVERLAP_MODES = (OVERLAP_NONE, OVERLAP_SEMICOMMIT)


@dataclass(frozen=True)
class Phase:
    """One protocol phase: a name, its executor, and its data dependencies.

    Executors read their inputs from the :class:`RoundContext` (including
    earlier phases' reports via ``ctx.phase_reports``) and return a report
    object, which the pipeline stores back under ``name``.

    ``needs`` names the same-round phases whose outputs this phase reads
    (``None`` means "the immediately preceding phase", the plain chain).
    ``needs_prev`` names previous-round phases whose outputs this phase
    reads; a phase with an explicit ``needs_prev`` does NOT implicitly wait
    for the previous round to finish, which is what lets the overlap
    scheduler start it early.  Annotations are static facts about data
    flow — whether they are exploited is the scheduler's mode decision.
    """

    name: str
    run: PhaseFn
    needs: tuple[str, ...] | None = None
    needs_prev: tuple[str, ...] = ()


class PhasePipeline:
    """Ordered registry of :class:`Phase` objects plus their hooks."""

    def __init__(self, phases: Iterable[Phase] = ()) -> None:
        self._phases: list[Phase] = []
        self._phase_hooks: dict[tuple[str, str], list[PhaseHook]] = {}
        self._round_hooks: dict[str, list[Callable]] = {PRE: [], POST: []}
        #: sim-time span of each phase in the most recent :meth:`execute`.
        self.last_timings: dict[str, float] = {}
        for phase in phases:
            self.register(phase)

    # -- registry ----------------------------------------------------------
    def register(self, phase: Phase) -> None:
        """Append a phase."""
        if any(p.name == phase.name for p in self._phases):
            raise ValueError(f"duplicate phase {phase.name!r}")
        self._phases.append(phase)

    def index_of(self, name: str) -> int:
        for index, phase in enumerate(self._phases):
            if phase.name == name:
                return index
        raise KeyError(f"unknown phase {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self._phases)

    def __iter__(self) -> Iterator[Phase]:
        return iter(self._phases)

    def __len__(self) -> int:
        return len(self._phases)

    # -- hooks -------------------------------------------------------------
    def add_phase_hook(self, phase_name: str, when: str, hook: PhaseHook) -> None:
        """Attach ``hook(ctx, phase_name)`` to run ``when`` ("pre"/"post")
        around the named phase."""
        if when not in (PRE, POST):
            raise ValueError(f"when must be 'pre' or 'post', got {when!r}")
        self.index_of(phase_name)  # validate the phase exists
        self._phase_hooks.setdefault((phase_name, when), []).append(hook)

    def add_round_hook(self, when: str, hook: Callable) -> None:
        """Attach a round-boundary hook: ``hook(ledger)`` at "pre" (before
        role assignment), ``hook(ledger, report)`` at "post"."""
        if when not in (PRE, POST):
            raise ValueError(f"when must be 'pre' or 'post', got {when!r}")
        self._round_hooks[when].append(hook)

    # -- execution ---------------------------------------------------------
    def begin_round(self, ledger: "CommitteeSimBackend") -> None:
        for hook in self._round_hooks[PRE]:
            hook(ledger)

    def end_round(
        self, ledger: "CommitteeSimBackend", report: "SimRoundReport"
    ) -> None:
        for hook in self._round_hooks[POST]:
            hook(ledger, report)

    def execute(self, ctx: "RoundContext") -> dict[str, Any]:
        """Run every registered phase in order against ``ctx``.

        Each phase's report lands in ``ctx.phase_reports[name]`` (so later
        phases can read earlier results) and the full mapping is returned.

        Every phase ends with the network drained, so no delivery can reach
        a handler it registered: the mailbox of each node activated this
        round is emptied as the phase returns, and the phase's sessions
        are freed then rather than at the next round's reset.
        """
        self.last_timings = {}
        net = ctx.net
        for phase in self._phases:
            for hook in self._phase_hooks.get((phase.name, PRE), ()):
                hook(ctx, phase.name)
            started = net.now
            report = phase.run(ctx)
            for node_id in net.activated:
                net.nodes[node_id].handlers.clear()
            ctx.phase_reports[phase.name] = report
            self.last_timings[phase.name] = net.now - started
            for hook in self._phase_hooks.get((phase.name, POST), ()):
                hook(ctx, phase.name)
        return dict(ctx.phase_reports)


# -- the continuous-time overlap scheduler -----------------------------------
@dataclass(frozen=True)
class PhaseWindow:
    """One phase's span on the continuous cross-round timeline."""

    name: str
    start: float
    end: float


@dataclass(frozen=True)
class RoundWindow:
    """One round's span on the continuous cross-round timeline."""

    round_number: int
    start: float
    end: float
    phases: tuple[PhaseWindow, ...]


class OverlapScheduler:
    """Composes measured per-round phase spans into an end-to-end timeline.

    The simulator executes rounds one at a time (identical state and RNG
    consumption in every mode); this scheduler re-times the measured phase
    spans on the continuous clock according to the phases' data-dependency
    annotations:

    * ``none`` — every round starts when the previous one ends; the
      timeline is the plain cumulative sum of round sim-times (and each
      round's window length equals its ``sim_time`` exactly).
    * ``semicommit`` — a phase with ``needs_prev`` starts at the latest
      end of those previous-round phases instead of waiting for the whole
      previous round; same-round ``needs`` edges still apply.  For the
      CycLedger pipeline that overlaps round r+1's config + semi-commit
      prefix with round r's block-generation suffix (§III-E, §V), so the
      makespan drops by ≈ min(block span, prefix span) per round pair.

    ``makespan`` after R observed rounds is the end-to-end sim-time
    latency the deployment would report — the quantity the paper's
    pipelining argument is about.
    """

    def __init__(self, mode: str = OVERLAP_NONE) -> None:
        if mode not in OVERLAP_MODES:
            raise ValueError(
                f"unknown overlap mode {mode!r} "
                f"(known: {', '.join(OVERLAP_MODES)})"
            )
        self.mode = mode
        self._prev_ends: dict[str, float] = {}
        self._prev_round_end = 0.0
        self._validated_names: tuple[str, ...] | None = None
        #: end of the latest-finishing scheduled phase so far (the
        #: end-to-end latency of everything observed).
        self.makespan = 0.0

    def _validate_annotations(self, phases: Sequence[Phase]) -> None:
        """Reject dependency annotations naming unknown phases.

        A typo'd ``needs_prev`` would otherwise resolve to the timeline
        origin forever and silently deflate every round window (inflating
        the reported pipelining gain); a typo'd ``needs`` would silently
        drop the same-round ordering edge.  Validated once per phase
        roster, so the per-round cost is one tuple comparison.
        """
        names = tuple(p.name for p in phases)
        if names == self._validated_names:
            return
        seen: set[str] = set()
        all_names = set(names)
        for phase in phases:
            if phase.needs is not None:
                for dep in phase.needs:
                    if dep not in seen:
                        raise ValueError(
                            f"phase {phase.name!r} needs {dep!r}, which is "
                            "not an earlier phase of this pipeline"
                        )
            for dep in phase.needs_prev:
                if dep not in all_names:
                    raise ValueError(
                        f"phase {phase.name!r} needs_prev {dep!r}, which "
                        "is not a phase of this pipeline"
                    )
            seen.add(phase.name)
        self._validated_names = names

    def observe_round(
        self,
        round_number: int,
        phases: Sequence[Phase],
        durations: Mapping[str, float],
        round_sim_time: float,
    ) -> RoundWindow:
        """Place one executed round's phases on the timeline.

        ``durations`` is the pipeline's ``last_timings`` mapping;
        ``round_sim_time`` is the round's total span on the round-local
        clock (``net.now`` at round end), which anchors the ``none``-mode
        window length exactly (no float drift against ``sim_time``).
        """
        self._validate_annotations(phases)
        base = self._prev_round_end
        ends: dict[str, float] = {}
        windows: list[PhaseWindow] = []
        for index, phase in enumerate(phases):
            candidates: list[float] = []
            if phase.needs is not None:
                candidates += [
                    ends[dep] for dep in phase.needs if dep in ends
                ]
            elif index > 0:
                candidates.append(windows[-1].end)
            if self.mode == OVERLAP_NONE:
                if index == 0:
                    candidates.append(base)
            elif phase.needs_prev:
                # Unseen deps (only possible in the very first observed
                # round) anchor at the timeline base, never before it.
                candidates += [
                    self._prev_ends.get(dep, base)
                    for dep in phase.needs_prev
                ]
            elif index == 0:
                candidates.append(base)
            start = max(candidates, default=base)
            end = start + durations.get(phase.name, 0.0)
            ends[phase.name] = end
            windows.append(PhaseWindow(phase.name, start, end))
        if self.mode == OVERLAP_NONE:
            start, end = base, base + round_sim_time
        else:
            start = min((w.start for w in windows), default=base)
            end = max((w.end for w in windows), default=base)
        self._prev_ends = ends
        self._prev_round_end = end
        self.makespan = max(self.makespan, end)
        return RoundWindow(
            round_number=round_number,
            start=start,
            end=end,
            phases=tuple(windows),
        )
