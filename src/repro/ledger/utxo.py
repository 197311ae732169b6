"""UTXO set and the authentication function V (§III-D).

"All processors have access to an authentication function V to verify
whether a transaction is legitimate, e.g., the sum of all inputs of the
transaction is no less than the sum of all outputs and there is no
double-spending."
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from repro.ledger.transaction import Transaction, TxOutput


class ValidationResult(Enum):
    """Outcome of V, with the reason for rejection (useful to tests and to
    honest voters explaining their No votes)."""

    VALID = "valid"
    MISSING_INPUT = "missing_input"  # spent already or never existed
    DUPLICATE_INPUT = "duplicate_input"  # same outpoint twice in one tx
    OVERSPEND = "overspend"  # outputs exceed inputs
    EMPTY = "empty"  # no outputs
    NONPOSITIVE_OUTPUT = "nonpositive_output"

    def __bool__(self) -> bool:
        return self is ValidationResult.VALID


class UTXOSet:
    """Mapping of outpoints ``(txid, index)`` to unspent outputs.

    Mutation is transactional at block granularity via
    :meth:`apply_transaction` and :meth:`snapshot`/:meth:`restore` — a
    committee that sees a proposed block revalidates against a snapshot and
    only commits once the block is accepted.
    """

    def __init__(self) -> None:
        self._utxos: dict[tuple[bytes, int], TxOutput] = {}
        #: Bumped by every content change (``add``/``spend``/``restore``):
        #: anything derived from the contents is stale once it moves.
        self.version = 0

    # -- queries -----------------------------------------------------------
    def __contains__(self, outpoint: tuple[bytes, int]) -> bool:
        return outpoint in self._utxos

    def __len__(self) -> int:
        return len(self._utxos)

    def __iter__(self) -> Iterator[tuple[bytes, int]]:
        return iter(self._utxos)

    def get(self, outpoint: tuple[bytes, int]) -> TxOutput | None:
        return self._utxos.get(outpoint)

    def amount(self, outpoint: tuple[bytes, int]) -> int:
        output = self._utxos.get(outpoint)
        return 0 if output is None else output.amount

    def total_value(self) -> int:
        return sum(o.amount for o in self._utxos.values())

    def outpoints_of(self, address: str) -> list[tuple[bytes, int]]:
        return [op for op, out in self._utxos.items() if out.address == address]

    # -- mutation --------------------------------------------------------------
    def add(self, outpoint: tuple[bytes, int], output: TxOutput) -> None:
        if outpoint in self._utxos:
            raise ValueError(f"outpoint {outpoint[0].hex()[:8]}:{outpoint[1]} exists")
        self._utxos[outpoint] = output
        self.version += 1

    def spend(self, outpoint: tuple[bytes, int]) -> TxOutput:
        self.version += 1
        try:
            return self._utxos.pop(outpoint)
        except KeyError:
            raise KeyError(
                f"outpoint {outpoint[0].hex()[:8]}:{outpoint[1]} not unspent"
            ) from None

    def apply_transaction(self, tx: Transaction) -> None:
        """Spend the inputs and create the outputs of a *validated* tx."""
        for outpoint in tx.outpoints():
            self.spend(outpoint)
        for index, output in enumerate(tx.outputs):
            self.add((tx.txid, index), output)

    def snapshot(self) -> dict[tuple[bytes, int], TxOutput]:
        return dict(self._utxos)

    def restore(self, snapshot: dict[tuple[bytes, int], TxOutput]) -> None:
        self._utxos = dict(snapshot)
        self.version += 1

    def compact(self) -> None:
        """Rebuild the backing dict at its live size.

        A long run churns millions of outpoints through the set; CPython
        dicts never shrink their hash table after deletions, so a mostly-
        drained set can pin the high-water capacity forever.  Rebuilding is
        content-neutral: same keys, same values, same iteration order.
        """
        self._utxos = dict(self._utxos)


def validate_transaction(tx: Transaction, utxos: UTXOSet) -> ValidationResult:
    """The authentication function V.

    Coinbase transactions are only created by the protocol itself (genesis
    and fee distribution) and never enter V — user-submitted coinbases are
    rejected as OVERSPEND (they create value from nothing).
    """
    if not tx.outputs:
        return ValidationResult.EMPTY
    if any(o.amount <= 0 for o in tx.outputs):
        return ValidationResult.NONPOSITIVE_OUTPUT
    outpoints = tx.outpoints()
    if len(set(outpoints)) != len(outpoints):
        return ValidationResult.DUPLICATE_INPUT
    total_in = 0
    for outpoint in outpoints:
        output = utxos.get(outpoint)
        if output is None:
            return ValidationResult.MISSING_INPUT
        total_in += output.amount
    if total_in < tx.output_total():
        return ValidationResult.OVERSPEND
    return ValidationResult.VALID


def transaction_fee(tx: Transaction, utxos: UTXOSet) -> int:
    """Fee = inputs - outputs; only meaningful for transactions valid
    against ``utxos``."""
    total_in = sum(utxos.amount(op) for op in tx.outpoints())
    return total_in - tx.output_total()


def validate_batch(
    txs: Iterable[Transaction], utxos: UTXOSet, sequential: bool = True
) -> list[ValidationResult]:
    """Validate a list in order.  With ``sequential=True`` each valid tx is
    applied to a scratch copy before the next is checked, so intra-batch
    double spends are caught (the committee-level semantics)."""
    if not sequential:
        return [validate_transaction(tx, utxos) for tx in txs]
    scratch = UTXOSet()
    scratch.restore(utxos.snapshot())
    results = []
    for tx in txs:
        result = validate_transaction(tx, scratch)
        results.append(result)
        if result:
            scratch.apply_transaction(tx)
    return results
