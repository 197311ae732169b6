"""RapidChain model [Zamani et al., CCS'18] — Table I column 3.

Resiliency t < n/3; O(n) complexity; O(c) storage; failure
``m·e^{-c/12} + (1/2)^27`` (the additive term from its reference-committee
bootstrap).  "The protocol guarantees high efficiency only when leaders of
each committee are honest … in expectation, there is a proportion of 1/3
leaders that are malicious in a round.  Under this condition, cross-shard
transactions may hardly be included in a block." (§II-A)
"""

from __future__ import annotations

from repro.analysis.security import round_failure_rapidchain
from repro.baselines.common import ProtocolModel


class RapidChainModel(ProtocolModel):
    name = "RapidChain"
    backend = "rapidchain"
    resiliency = 1.0 / 3.0
    complexity = "O(n)"
    storage = "O(c)"
    decentralization = "an honest reference committee"
    leader_robust = False
    has_incentives = False
    connection_burden = "heavy"

    def fail_probability(self, m, c, lam):
        return round_failure_rapidchain(m, c)
