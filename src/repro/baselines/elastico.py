"""Elastico model [Luu et al., CCS'16] — Table I column 1.

Resiliency t < n/4; Ω(n) complexity; O(n) storage (every node keeps the full
ledger); failure probability Ω(m·e^{-c/40}) with notoriously small
committees (c ≈ 100), which is why "when there are 16 shards, the failure
probability is 97% over only 6 epochs" (§II-A).
"""

from __future__ import annotations

from repro.analysis.security import round_failure_elastico
from repro.baselines.common import ProtocolModel


class ElasticoModel(ProtocolModel):
    name = "Elastico"
    resiliency = 1.0 / 4.0
    complexity = "Ω(n)"
    storage = "O(n)"  # full replication
    decentralization = "no always-honest party"
    leader_robust = False
    has_incentives = False
    connection_burden = "heavy"

    def fail_probability(self, m, c, lam):
        return round_failure_elastico(m, c)
