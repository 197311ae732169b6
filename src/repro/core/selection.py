"""Referee committee, leaders and partial-set selection (§IV-F).

At the end of round r:

* C_R runs the SCRAPE beacon to produce the next round's randomness
  ``R^{r+1}`` (implemented in full in :mod:`repro.crypto.beacon`);
* prospective participants solve the PoW admission puzzle and submit
  solutions to C_R, which records the participant set ``P^{r+1}``;
* C_R picks the ``m`` *highest-reputation* participants as next-round
  leaders ("we directly choose nodes with the highest reputation as leaders
  … thus to enhance the performance and throughput", §VII-A);
* the next referee committee and the partial sets are drawn *uniformly*
  via the role-hash lottery (exact-size rank variant, see
  :mod:`repro.core.sortition`), keeping committee randomness intact — the
  design point RepChain trades away (§II-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sortition import (
    REFEREE_ROLE,
    assign_partial_sets,
    rank_select,
    role_digests,
)
from repro.core.structures import RoundContext
from repro.core.tags import Tags
from repro.crypto.beacon import BeaconReport, run_beacon
from repro.crypto.pow import PowPuzzle, solve_pow, verify_pow

#: PoW admission difficulty (§IV-F): a few bits, so admission stays cheap.
POW_DIFFICULTY_BITS = 4


@dataclass
class SelectionReport:
    randomness: bytes = b""
    beacon: BeaconReport | None = None
    participants: list[str] = field(default_factory=list)
    next_referee: list[str] = field(default_factory=list)
    next_leaders: list[str] = field(default_factory=list)
    next_partials: list[list[str]] = field(default_factory=list)
    rejected_pow: int = 0
    #: True when PoW participation could not staff the next round's key
    #: roles (only reachable under injected faults — partitions/churn can
    #: cut PoW submissions off from the referee) and the incumbents were
    #: held over for one round instead of aborting the run.
    held_over: bool = False


def run_selection(ctx: RoundContext) -> SelectionReport:
    ctx.metrics.set_phase("selection")
    report = SelectionReport()
    params = ctx.params

    # -- 1. SCRAPE beacon within C_R ---------------------------------------
    corrupt_dealers = [
        idx
        for idx, rid in enumerate(ctx.referee)
        if ctx.node(rid).behavior.is_malicious
    ]
    withhold = [
        idx for idx, rid in enumerate(ctx.referee) if not ctx.node(rid).online
    ]
    beacon_rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=int.from_bytes(ctx.randomness[:8], "big"),
            spawn_key=(ctx.round_number,),
        )
    )
    randomness, beacon_report = run_beacon(
        len(ctx.referee),
        ctx.round_number + 1,
        beacon_rng,
        corrupt_dealers=corrupt_dealers,
        withhold=withhold,
    )
    report.randomness = randomness
    report.beacon = beacon_report

    # -- 2. PoW admission ------------------------------------------------------
    puzzle = PowPuzzle(
        round_number=ctx.round_number + 1,
        randomness=ctx.randomness,
        difficulty_bits=POW_DIFFICULTY_BITS,
    )
    solutions: dict[str, object] = {}

    def on_solution(message) -> None:
        solution = message.payload
        if verify_pow(puzzle, solution):
            solutions[solution.pk] = solution
        else:
            report.rejected_pow += 1

    # Collection must survive referee churn: submissions go to the first
    # *online* referee member (identical to referee[0] in fault-free runs,
    # so this changes nothing without fault injection).  Every referee
    # member registers the handler, so any online target tallies.
    online_referees = [rid for rid in ctx.referee if ctx.node(rid).online]
    if not online_referees:
        raise RuntimeError("entire referee committee offline during selection")
    lead_referee = online_referees[0]
    for rid in ctx.referee:
        ctx.node(rid).on(Tags.POW_SOLUTION, on_solution)
    for node in ctx.nodes.values():
        if not node.online:
            continue
        solution = solve_pow(puzzle, node.pk)
        node.send(lead_referee, Tags.POW_SOLUTION, solution)
    ctx.net.run()
    report.participants = sorted(solutions)

    # -- 3. next-round key roles ------------------------------------------------
    participants = list(report.participants)
    if len(participants) < params.referee_size + params.m * (1 + params.lam):
        # Unreachable fault-free (every online node submits and n covers
        # the key-role demand by construction), but a partition or churn
        # window can cut submissions off from the referee.  The run must
        # degrade, not die: hold the incumbents over for one round and
        # record it — the lottery resumes as soon as PoW flows again.
        report.held_over = True
        report.next_referee = [ctx.pk_of(rid) for rid in ctx.referee]
        report.next_leaders = [
            ctx.pk_of(spec.leader) for spec in ctx.committees
        ]
        report.next_partials = [
            [ctx.pk_of(pid) for pid in spec.partial] for spec in ctx.committees
        ]
        return report
    next_referee = rank_select(
        participants,
        ctx.round_number + 1,
        randomness,
        REFEREE_ROLE,
        params.referee_size,
    )
    referee_set = set(next_referee)
    remaining = [pk for pk in participants if pk not in referee_set]
    # Leaders: the m highest-reputation remaining participants; ties broken
    # by the role hash so the choice stays deterministic and unbiased.
    # One batched digest pass gives the sort key (digest byte order ==
    # the role hash's integer order).
    leader_digests = role_digests(
        ctx.round_number + 1, randomness, remaining, "LEADER"
    )
    reputation = ctx.reputation
    order = sorted(
        range(len(remaining)),
        key=lambda i: (
            -reputation.get(remaining[i], 0.0),
            leader_digests[i],
        ),
    )
    next_leaders = [remaining[i] for i in order[: params.m]]
    leader_set = set(next_leaders)
    pool = [pk for pk in remaining if pk not in leader_set]
    # Partial sets: uniform rank lottery, then committee assignment by
    # H(r+1 || R^r || PK || PARTIAL_SET_MEMBER) mod m, topped up in rank
    # order so every committee gets exactly λ.
    partials = assign_partial_sets(
        pool, ctx.round_number + 1, randomness, params.m, params.lam
    )
    report.next_referee = next_referee
    report.next_leaders = next_leaders
    report.next_partials = partials
    for rid in ctx.referee:
        ctx.metrics.record_storage(rid, len(participants))
    return report
