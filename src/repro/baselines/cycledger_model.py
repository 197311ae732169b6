"""CycLedger's own analytical profile — Table I column 4.

Resiliency t < n/3; O(n) complexity; O(m²/n + c) storage; failure
``m·(e^{-c/12} + (1/3)^λ)``; no always-honest party; recovers from
dishonest leaders (partial sets + Algorithm 6); explicit incentives; light
connection burden (committee cliques + key-member clique + key→C_R links,
not an all-honest-pairs clique).
"""

from __future__ import annotations

from repro.analysis.security import round_failure_cycledger
from repro.baselines.common import ProtocolModel
from repro.net.params import ChannelClass


class CycLedgerModel(ProtocolModel):
    name = "CycLedger"
    backend = "cycledger"
    resiliency = 1.0 / 3.0
    complexity = "O(n)"
    storage = "O(m²/n + c)"
    decentralization = "no always-honest party"
    leader_robust = True
    has_incentives = True
    connection_burden = "light"
    # §III-B: reliable channels inside committees (and C_R), among key
    # members, and between key members and C_R; the rest is partial.
    synchronous = (ChannelClass.INTRA, ChannelClass.KEY, ChannelClass.REFEREE)

    def fail_probability(self, m, c, lam):
        return round_failure_cycledger(m, c, lam)
