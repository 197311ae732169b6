"""Baseline sharding-protocol models for the Table I comparison.

Elastico, OmniLedger and RapidChain are closed-source testbed systems; a
model states what its paper claims for one Table I column (resiliency,
complexity, storage, per-round failure probability, decentralization
assumptions, dishonest-leader behaviour, incentives, connection burden)
and evaluates the failure formula.

Every quantitative cell an executable backend can produce is measured
instead of modelled.  ``repro.exp.policies_artifact`` reads the
dishonest-leader row from the seed-paired ``policy-compare`` sweep
``BENCH_policies.json`` pins; ``repro.exp.table1_cells`` reads the
Complexity, Storage and Burden rows from a run of every backend.  A model
names its executable backend in ``backend``; Elastico has none and prints
its stated classes.
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
