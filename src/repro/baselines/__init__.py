"""Baseline sharding-protocol models for the Table I comparison.

Elastico, OmniLedger and RapidChain are closed-source testbed systems; what
Table I compares is their *analytical* profiles (resiliency, complexity,
storage, per-round failure probability, decentralization assumptions,
dishonest-leader behaviour, incentives, connection burden).  Each baseline
is therefore a model exposing those quantities.

The row CycLedger highlights — high efficiency w.r.t. dishonest leaders —
is measured, not modelled: ``repro.exp.policies_artifact`` reads it from
the seed-paired ``policy-compare`` sweep (every executable backend, with
and without a leader-targeting adaptive adversary), the sweep
``BENCH_policies.json`` pins.  A model names its executable backend in
``backend``; Elastico has none and stays analytic only.
"""

from repro.baselines.common import ProtocolModel
from repro.baselines.elastico import ElasticoModel
from repro.baselines.omniledger import OmniLedgerModel
from repro.baselines.rapidchain import RapidChainModel
from repro.baselines.cycledger_model import CycLedgerModel

ALL_MODELS = [
    ElasticoModel(),
    OmniLedgerModel(),
    RapidChainModel(),
    CycLedgerModel(),
]

__all__ = [
    "ProtocolModel",
    "ElasticoModel",
    "OmniLedgerModel",
    "RapidChainModel",
    "CycLedgerModel",
    "ALL_MODELS",
]
