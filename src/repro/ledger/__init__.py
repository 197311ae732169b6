"""UTXO ledger substrate.

The paper's problem definition (§III-D): users are divided into ``m``
shards; each shard's state (identities + Unspent Transaction Outputs) is
maintained by the corresponding committee; all processors share an
authentication function ``V`` that checks legitimacy (inputs cover outputs,
no double spending).
"""

from repro.ledger.transaction import (
    Transaction,
    shard_of_address,
)
from repro.ledger.utxo import UTXOSet, ValidationResult, validate_transaction
from repro.ledger.state import ShardState
from repro.ledger.chain import Block, Chain, GENESIS_PREV_HASH
from repro.ledger.workload import WorkloadGenerator, TaggedTx

__all__ = [
    "Transaction",
    "shard_of_address",
    "UTXOSet",
    "ValidationResult",
    "validate_transaction",
    "ShardState",
    "Block",
    "Chain",
    "GENESIS_PREV_HASH",
    "WorkloadGenerator",
    "TaggedTx",
]
