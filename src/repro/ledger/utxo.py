"""UTXO set and the authentication function V (§III-D).

"All processors have access to an authentication function V to verify
whether a transaction is legitimate, e.g., the sum of all inputs of the
transaction is no less than the sum of all outputs and there is no
double-spending."
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from repro.ledger.transaction import Transaction


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


_MISSING = object()


def _not_unspent(outpoint: tuple[bytes, int]) -> str:
    return f"outpoint {outpoint[0].hex()[:8]}:{outpoint[1]} not unspent"


def _exists(outpoint: tuple[bytes, int]) -> str:
    return f"outpoint {outpoint[0].hex()[:8]}:{outpoint[1]} exists"


class UTXOSet:
    """Mapping of outpoints ``(txid, index)`` to unspent outputs.

    Mutation is transactional at block granularity via
    :meth:`apply_transaction` and :meth:`snapshot`/:meth:`restore` — a
    committee that sees a proposed block revalidates against a snapshot and
    only commits once the block is accepted.
    """

    def __init__(self) -> None:
        self._utxos: dict[tuple[bytes, int], tuple[str, int]] = {}
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

    def get(self, outpoint: tuple[bytes, int]) -> tuple[str, int] | None:
        return self._utxos.get(outpoint)

    def amount(self, outpoint: tuple[bytes, int]) -> int:
        output = self._utxos.get(outpoint)
        return 0 if output is None else output[1]

    def total_value(self) -> int:
        return sum([amount for _address, amount in self._utxos.values()])

    # -- mutation --------------------------------------------------------------
    def add(self, outpoint: tuple[bytes, int], output: tuple[str, int]) -> None:
        if outpoint in self._utxos:
            raise ValueError(_exists(outpoint))
        self._utxos[outpoint] = output
        self.version += 1

    def spend(self, outpoint: tuple[bytes, int]) -> tuple[str, int]:
        try:
            output = self._utxos.pop(outpoint)
        except KeyError:
            raise KeyError(_not_unspent(outpoint)) from None
        self.version += 1  # a failed spend changed nothing
        return output

    def apply_transaction(self, tx: Transaction) -> None:
        """Spend the inputs and create the outputs of a *validated* tx.

        :meth:`spend` then :meth:`add` per outpoint, probing the dict
        directly: the same contents, ``version`` moves and exceptions
        (an operation that raises has moved nothing; the ones before it
        stand).
        """
        utxos = self._utxos
        moved = 0
        try:
            for outpoint in tx.outpoints():
                if utxos.pop(outpoint, _MISSING) is _MISSING:
                    raise KeyError(_not_unspent(outpoint))
                moved += 1
            txid = tx.txid
            for index, output in enumerate(tx.outputs):
                outpoint = (txid, index)
                if outpoint in utxos:
                    raise ValueError(_exists(outpoint))
                utxos[outpoint] = output
                moved += 1
        finally:
            self.version += moved

    def snapshot(self) -> dict[tuple[bytes, int], tuple[str, int]]:
        return dict(self._utxos)

    def restore(self, snapshot: dict[tuple[bytes, int], tuple[str, int]]) -> None:
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

    The checks run in this order, the first failing one naming the result:
    EMPTY, NONPOSITIVE_OUTPUT, DUPLICATE_INPUT, MISSING_INPUT, OVERSPEND.
    One pass over the outputs both checks and sums them; the duplicate set
    is built only for more than one input.
    """
    outputs = tx.outputs
    if not outputs:
        return ValidationResult.EMPTY
    total_out = 0
    for _address, amount in outputs:
        if amount <= 0:
            return ValidationResult.NONPOSITIVE_OUTPUT
        total_out += amount
    if type(total_out) is not int:
        # A float amount: ``sum`` rounds its own way (compensated from
        # Python 3.12), so the total is the one ``output_total`` gives.
        total_out = tx.output_total()
    inputs = tx.inputs
    if len(inputs) > 1 and len(set(inputs)) != len(inputs):
        return ValidationResult.DUPLICATE_INPUT
    held = utxos._utxos.get
    total_in = 0
    for outpoint in inputs:
        output = held(outpoint)
        if output is None:
            return ValidationResult.MISSING_INPUT
        total_in += output[1]
    if total_in < total_out:
        return ValidationResult.OVERSPEND
    return ValidationResult.VALID


def transaction_fee(tx: Transaction, utxos: UTXOSet) -> int:
    """Fee = inputs - outputs; only meaningful for transactions valid
    against ``utxos``."""
    total_in = sum(utxos.amount(op) for op in tx.outpoints())
    return total_in - tx.output_total()


def validate_batch(
    txs: Iterable[Transaction], utxos: UTXOSet
) -> list[ValidationResult]:
    """Validate a list in order.  Each valid tx is applied to a scratch copy
    before the next is checked, so intra-batch double spends are caught
    (the committee-level semantics)."""
    scratch = UTXOSet()
    scratch._utxos = utxos.snapshot()  # the one copy
    results = []
    for tx in txs:
        result = validate_transaction(tx, scratch)
        results.append(result)
        if result:
            scratch.apply_transaction(tx)
    return results
