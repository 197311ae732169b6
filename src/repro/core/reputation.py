"""Reputation updating and the reward mechanism (§IV-E, §IV-G, §VII).

Scoring (Eq. 1): a member's score is the cosine similarity between its vote
vector and the committee's decision vector over the round's transactions::

    s_i = cos(v_i, u) = (v_i · u) / (|v_i| |u|)  ∈ [-1, 1]

votes are +1 (Yes), -1 (No), 0 (Unknown); an all-Unknown vote scores 0 —
"nodes who always vote Unknown" keep reputation 0 and "could still get
little rewards" through g(0) = 1.

Reward mapping (Eq. 2)::

    g(x) = e^x          if x <= 0
           1 + ln(x+1)  if x >  0

Rewards are distributed proportionally to g(reputation); the sum of all
nodes' revenue equals the round's total transaction fees.

The leader assembles the ScoreList, runs Algorithm 3 on (ScoreList, VList)
and sends the agreement to C_R, which "updates their reputation by simply
adding the listed score".  Leaders also receive a small reputation bonus
(§VII-A: "leaders obtain some extra reputation as a bonus for their hard
work").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.consensus import InsideConsensus
from repro.core.structures import RoundContext
from repro.core.tags import Tags
from repro.net.message import payload_size

#: Extra reputation a leader earns for an honestly completed round (the
#: paper leaves the magnitude open; this is our reproduction constant).
LEADER_BONUS = 0.25


def cosine_scores(matrix: np.ndarray, decision: np.ndarray) -> np.ndarray:
    """Vectorized Eq. 1 over a (members × transactions) vote matrix.

    Rows with zero norm (all Unknown) score 0, as does a zero decision
    vector (no transactions decided).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    decision = np.asarray(decision, dtype=np.float64)
    if matrix.ndim != 2 or decision.ndim != 1 or matrix.shape[1] != decision.size:
        raise ValueError("matrix must be (members × D) and decision length D")
    u_norm = float(np.linalg.norm(decision))
    if u_norm == 0.0 or matrix.shape[1] == 0:
        return np.zeros(matrix.shape[0])
    row_norms = np.linalg.norm(matrix, axis=1)
    dots = matrix @ decision
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(row_norms > 0, dots / (row_norms * u_norm), 0.0)
    return np.clip(scores, -1.0, 1.0)


def g(x):
    """Eq. 2: the monotone map from reputation to positive reward weight."""
    x = np.asarray(x, dtype=np.float64)
    result = np.where(x <= 0, np.exp(np.minimum(x, 0.0)), 1.0 + np.log1p(np.maximum(x, 0.0)))
    return result if result.ndim else float(result)


def distribute_rewards(
    total_fees: float, reputations: Mapping[str, float]
) -> dict[str, float]:
    """Split ``total_fees`` proportionally to g(reputation) (§IV-G)."""
    if not reputations:
        return {}
    pks = list(reputations)
    weights = g(np.fromiter(reputations.values(), float, len(pks)))
    total_weight = float(np.sum(weights))
    if total_weight <= 0.0:
        return {pk: 0.0 for pk in pks}
    share = total_fees / total_weight
    return {pk: float(w) * share for pk, w in zip(pks, weights)}


@dataclass
class ReputationReport:
    scores: dict[int, dict[str, float]] = field(default_factory=dict)
    consensus_ok: dict[int, bool] = field(default_factory=dict)
    updated: int = 0


def run_reputation_updating(ctx: RoundContext) -> ReputationReport:
    """Score every committee's members from the round's vote records, reach
    committee consensus on the ScoreList, and apply updates at C_R."""
    ctx.metrics.set_phase("reputation")
    report = ReputationReport()

    # Score locally per committee (leader-side computation, O(c·D)).
    sessions: list[tuple[int, InsideConsensus]] = []
    for committee in ctx.committees:
        records = ctx.vote_records.get(committee.index, [])
        member_pks = [ctx.pk_of(mid) for mid in committee.members]
        if records:
            matrices = [rec[1] for rec in records]
            decisions = [rec[2] for rec in records]
            matrix = np.concatenate(matrices, axis=1)
            decision = np.concatenate(decisions)
            scores = cosine_scores(matrix, decision)
        else:
            scores = np.zeros(len(member_pks))
        score_list = {pk: float(s) for pk, s in zip(member_pks, scores)}
        report.scores[committee.index] = score_list
        consensus = InsideConsensus(
            ctx,
            committee.members,
            leader=committee.leader,
            sn=("SCORES", committee.index),
            payload=tuple(sorted(score_list.items())),
            session=f"scores:{committee.index}",
        )
        consensus.start()
        sessions.append((committee.index, consensus))
    ctx.net.run()

    # Leaders send the agreed ScoreList to C_R; C_R applies the updates.
    received: dict[int, tuple] = {}

    def on_scores(message) -> None:
        k, score_items, cert = message.payload
        received[k] = (score_items, cert)

    lead_referee = ctx.referee[0]
    ctx.node(lead_referee).on(Tags.SCORES_TO_CR, on_scores)
    for k, consensus in sessions:
        ok = consensus.outcome.success
        report.consensus_ok[k] = ok
        if not ok:
            continue
        committee = ctx.committees[k]
        leader_node = ctx.node(committee.leader)
        payload = (
            k,
            tuple(sorted(report.scores[k].items())),
            tuple(consensus.outcome.cert),
        )
        size = payload_size(payload)
        leader_node.multicast(ctx.referee, Tags.SCORES_TO_CR, payload, size=size)
    ctx.net.run()

    store = ctx.reputation
    for score_items, _cert in received.values():
        for pk, score in score_items:
            store[pk] = store.get(pk, 0.0) + float(score)
            report.updated += 1
    # Leader bonus for committees that completed their score consensus.
    for k, ok in report.consensus_ok.items():
        if ok:
            leader_pk = ctx.pk_of(ctx.committees[k].leader)
            ctx.reputation[leader_pk] = (
                ctx.reputation.get(leader_pk, 0.0) + LEADER_BONUS
            )
    return report
