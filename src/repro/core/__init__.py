"""CycLedger protocol core.

One round (§III-E) runs these phases in order, each implemented by a module
here and orchestrated by :class:`~repro.core.protocol.CycLedger`:

1. Committee configuration         — :mod:`repro.core.committee` (Alg. 2)
2. Semi-commitment exchanging      — :mod:`repro.core.semicommit` (Alg. 4)
3. Intra-committee consensus       — :mod:`repro.core.intra` (Alg. 5)
4. Inter-committee consensus       — :mod:`repro.core.inter`
5. Reputation updating             — :mod:`repro.core.reputation`
6. Referee/leader/partial selection — :mod:`repro.core.selection`
7. Block generation & propagation  — :mod:`repro.core.blockgen`

Shared machinery: :mod:`repro.core.consensus` (Alg. 3, the inside-committee
broadcast consensus), :mod:`repro.core.recovery` (witnesses, impeachment and
leader re-selection, Alg. 6), :mod:`repro.core.sortition` (Alg. 1),
:mod:`repro.core.backend` (the round driver CycLedger and the rival
backends all subclass).
"""

from repro.core.config import ProtocolParams
from repro.core.protocol import CycLedger, RoundReport
from repro.core.sortition import crypto_sort
from repro.core.consensus import InsideConsensus, ConsensusOutcome
from repro.core.reputation import cosine_scores, g, distribute_rewards

__all__ = [
    "ProtocolParams",
    "CycLedger",
    "RoundReport",
    "cosine_scores",
    "g",
    "distribute_rewards",
    "crypto_sort",
    "InsideConsensus",
    "ConsensusOutcome",
]
