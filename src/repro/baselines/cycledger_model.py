"""CycLedger's own analytical profile — Table I column 4.

Resiliency t < n/3; O(n) complexity; O(m²/n + c) storage; failure
``m·(e^{-c/12} + (1/3)^λ)``; no always-honest party; recovers from
dishonest leaders (partial sets + Algorithm 6); explicit incentives; light
connection burden (committee cliques + key-member clique + key→C_R links,
not an all-honest-pairs clique).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.security import round_failure_cycledger
from repro.baselines.common import ProtocolModel, as_float
from repro.net.topology import cycledger_channel_count


class CycLedgerModel(ProtocolModel):
    name = "CycLedger"
    backend = "cycledger"
    resiliency = 1.0 / 3.0
    decentralization = "no always-honest party"
    leader_robust = True
    has_incentives = True
    connection_burden = "light"

    def complexity_messages(self, n, m, c):
        return as_float(n)

    def storage(self, n, m, c):
        return as_float(
            m * m / np.maximum(np.asarray(n, dtype=float), 1.0)
            + np.asarray(c, dtype=float)
        )

    def fail_probability(self, m, c, lam):
        return as_float(round_failure_cycledger(m, c, lam))

    def connection_channels(
        self, n: int, m: int, c: int, lam: int, cr: int
    ) -> int:
        return cycledger_channel_count(n, m, lam, cr)
