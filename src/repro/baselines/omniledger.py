"""OmniLedger model [Kokoris-Kogias et al., S&P'18] — Table I column 2.

Resiliency t < n/4; O(n) complexity; O(c + log m) storage (state blocks +
epoch chain); failure O(m·e^{-c/40}); depends on "a never-absent trusty
client to schedule the leaders' interaction when handling cross-shard
transactions" (§II-A) — the Atomix client — so cross-shard progress under a
faulty coordinating client/leader stalls.
"""

from __future__ import annotations

from repro.analysis.security import round_failure_omniledger
from repro.baselines.common import ProtocolModel


class OmniLedgerModel(ProtocolModel):
    name = "OmniLedger"
    backend = "omniledger_sim"
    resiliency = 1.0 / 4.0
    complexity = "O(n)"
    storage = "O(c + log m)"
    decentralization = "an honest client"
    leader_robust = False
    has_incentives = False
    connection_burden = "heavy"

    def fail_probability(self, m, c, lam):
        return round_failure_omniledger(m, c)
