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
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.core.consensus import InsideConsensus
from repro.core.structures import RoundContext
from repro.core.tags import Tags
from repro.net.message import payload_size

#: Extra reputation a leader earns for an honestly completed round (the
#: paper leaves the magnitude open; this is our reproduction constant).
LEADER_BONUS = 0.25


class ReputationStore:
    """Array-backed reputation map: one float64 row per node id.

    Implements the read/write surface protocol code uses on the previous
    plain-dict store (``[]``, ``get``, ``items`` …) so every consumer —
    selection tie-breaks, block headers, recovery punishment, reward
    distribution — is unchanged, while the per-round score application
    and the reward weighting run as single vectorized operations over the
    value array instead of per-pk dict traffic.  Values are IEEE doubles
    either way, so every stored float is bit-identical to the dict path's.
    """

    __slots__ = ("_ids", "_pks", "_values")

    def __init__(self, pks: Iterable[str] = ()) -> None:
        self._pks: list[str] = list(pks)
        self._ids: dict[str, int] = {pk: i for i, pk in enumerate(self._pks)}
        self._values: np.ndarray = np.zeros(len(self._pks))

    # -- mapping surface ---------------------------------------------------
    def __getitem__(self, pk: str) -> float:
        return float(self._values[self._ids[pk]])

    def get(self, pk: str, default: float = 0.0) -> float:
        index = self._ids.get(pk)
        return default if index is None else float(self._values[index])

    def __setitem__(self, pk: str, value: float) -> None:
        index = self._ids.get(pk)
        if index is None:
            # Growth is rare (populations are fixed per run); amortize it
            # the simple way rather than over-allocating.
            self._ids[pk] = len(self._pks)
            self._pks.append(pk)
            self._values = np.append(self._values, float(value))
        else:
            self._values[index] = value

    def __contains__(self, pk: object) -> bool:
        return pk in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._pks)

    def __len__(self) -> int:
        return len(self._pks)

    def keys(self) -> list[str]:
        return list(self._pks)

    def values(self) -> list[float]:
        return [float(v) for v in self._values]

    def items(self) -> list[tuple[str, float]]:
        return [(pk, float(v)) for pk, v in zip(self._pks, self._values)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReputationStore):
            return self._pks == other._pks and np.array_equal(
                self._values, other._values
            )
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ReputationStore({dict(self.items())!r})"

    # -- vectorized operations --------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """The live value row vector, ordered like ``list(self)``."""
        return self._values

    def add_scores(self, items: Iterable[tuple[str, float]]) -> int:
        """Apply ``reputation[pk] += score`` for every pair, in one pass.

        Node populations are fixed per run, so every pk is already a row;
        committees are disjoint, so indices within one round's batch are
        unique and ``np.add.at`` applies exactly the per-pair additions the
        dict path performed, in the same order.
        """
        ids = self._ids
        rows = []
        scores = []
        for pk, score in items:
            rows.append(ids[pk])
            scores.append(score)
        if rows:
            np.add.at(self._values, rows, scores)
        return len(rows)


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
    if isinstance(reputations, ReputationStore):
        values = reputations.array  # id-indexed rows, ordered like pks
    else:
        values = np.array([reputations[pk] for pk in pks])
    weights = g(values)
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
    elapsed: float = 0.0


def run_reputation_updating(ctx: RoundContext) -> ReputationReport:
    """Score every committee's members from the round's vote records, reach
    committee consensus on the ScoreList, and apply updates at C_R."""
    ctx.metrics.set_phase("reputation")
    started = ctx.net.now
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
    if isinstance(store, ReputationStore):
        # One vectorized row update per committee (the committees are
        # disjoint, so batching preserves the per-pair addition order).
        for k, (score_items, _cert) in received.items():
            report.updated += store.add_scores(score_items)
    else:
        for k, (score_items, _cert) in received.items():
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
    report.elapsed = ctx.net.now - started
    return report


def score_summary(
    ctx: RoundContext, report: ReputationReport
) -> dict[str, list[float]]:
    """Group this round's scores by behaviour name (bench/test helper)."""
    by_behavior: dict[str, list[float]] = {}
    for k, score_list in report.scores.items():
        for mid in ctx.committees[k].members:
            pk = ctx.pk_of(mid)
            name = ctx.node(mid).behavior.name
            if pk in score_list:
                by_behavior.setdefault(name, []).append(score_list[pk])
    return by_behavior
