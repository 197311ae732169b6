"""Transaction builders the ledger tests share.

The workload generator builds its own transactions (``ledger/workload.py``);
these are for tests that spend a known output by hand, or replay what a
ledger packed.
"""

from __future__ import annotations

from repro.ledger.state import ShardState, apply_block
from repro.ledger.transaction import Transaction
from repro.ledger.utxo import UTXOSet, validate_transaction


def make_transfer(
    source: tuple[bytes, int],
    source_amount: int,
    payee: str,
    amount: int,
    change_address: str,
    fee: int = 1,
    nonce: int = 0,
) -> Transaction:
    """A single-input transfer paying ``amount`` to ``payee`` with the
    remainder (minus ``fee``) returned to ``change_address``.

    Raises if the source cannot cover amount + fee: a test that wants an
    invalid transaction builds it on purpose, not by accident.
    """
    if amount <= 0:
        raise ValueError("amount must be positive")
    if fee < 0:
        raise ValueError("fee cannot be negative")
    change = source_amount - amount - fee
    if change < 0:
        raise ValueError(
            f"source {source_amount} cannot cover amount {amount} + fee {fee}"
        )
    outputs = [(payee, amount)]
    if change > 0:
        outputs.append((change_address, change))
    return Transaction(inputs=(source,), outputs=tuple(outputs), nonce=nonce)


def genesis_views(workload) -> tuple[list[ShardState], UTXOSet]:
    """``workload``'s m shard views and global view, holding its genesis,
    written by the one walk a ledger builds them with."""
    states = [ShardState(k, workload.m) for k in range(workload.m)]
    pool = UTXOSet()
    apply_block(states, [workload.genesis_tx], workload.shard_of, pool)
    return states, pool


def replay_from_genesis(ledger) -> None:
    """Replay ``ledger``'s chain from genesis: every packed transaction is
    valid under V in order, and writing the blocks rebuilds the ledger's own
    global and shard views, in their dict order."""
    states, pool = genesis_views(ledger.workload)
    for block in ledger.chain:
        for tx in block.transactions:
            assert validate_transaction(tx, pool)
            apply_block(states, [tx], ledger.workload.shard_of, pool)
    assert list(pool.snapshot().items()) == list(ledger.global_utxos.snapshot().items())
    for mine, theirs in zip(states, ledger.shard_states):
        assert list(mine.utxos.snapshot().items()) == list(
            theirs.utxos.snapshot().items()
        )
