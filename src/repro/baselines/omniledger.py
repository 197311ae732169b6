"""OmniLedger model [Kokoris-Kogias et al., S&P'18] — Table I column 2.

Resiliency t < n/4; O(n) complexity; O(c + log m) storage (state blocks +
epoch chain); failure O(m·e^{-c/40}); depends on "a never-absent trusty
client to schedule the leaders' interaction when handling cross-shard
transactions" (§II-A) — the Atomix client — so cross-shard progress under a
faulty coordinating client/leader stalls.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.security import round_failure_omniledger
from repro.baselines.common import ProtocolModel, as_float


class OmniLedgerModel(ProtocolModel):
    name = "OmniLedger"
    backend = "omniledger_sim"
    resiliency = 1.0 / 4.0
    decentralization = "an honest client"
    leader_robust = False
    has_incentives = False
    connection_burden = "heavy"

    def complexity_messages(self, n, m, c):
        return as_float(n)

    def storage(self, n, m, c):
        return as_float(np.asarray(c, dtype=float) + np.log(max(m, 2)))

    def fail_probability(self, m, c, lam):
        return as_float(round_failure_omniledger(m, c))
