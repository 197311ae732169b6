"""Transaction builders the ledger tests share.

The workload generator builds its own transactions (``ledger/workload.py``);
these are for tests that spend a known output by hand.
"""

from __future__ import annotations

from repro.ledger.transaction import Transaction


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
