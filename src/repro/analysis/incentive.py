"""Incentive analysis (§VII, Fig. 4, Eq. 1–2)."""

from __future__ import annotations

import numpy as np

from repro.core.reputation import g  # canonical Eq. 2 implementation

__all__ = ["g", "expected_score"]


def expected_score(
    capacity: int, total_txs: int, accuracy: float = 1.0
) -> float:
    """Expected per-round cosine score of an honest node (Eq. 1 model).

    A node that correctly judges ``min(capacity, D)`` of ``D`` transactions
    and votes Unknown on the rest has vote vector matching the decision on
    the judged coordinates and 0 elsewhere; against a ±1 decision vector the
    cosine is ``sqrt(judged / D) · accuracy``.  This is the concrete sense
    in which "reputation reflects honest computational resources" (§VII-A):
    the score grows monotonically with capacity.
    """
    if total_txs <= 0:
        return 0.0
    judged = min(max(capacity, 0), total_txs)
    return float(np.sqrt(judged / total_txs) * accuracy)
