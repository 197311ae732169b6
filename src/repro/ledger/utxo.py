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

    A block is judged against the set read-only (:func:`validate_batch`)
    and written once it is committed (:func:`repro.ledger.state.apply_block`).
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
    """
    return _verdict(tx, utxos._utxos, {})


def _verdict(tx: Transaction, held: dict, moved: dict) -> ValidationResult:
    """V's one body: an input's output is ``None`` if ``moved`` maps it so
    (spent), or else what ``held`` maps it to, or else the output a txid
    ``moved`` maps to its outputs made there.

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
    total_in = 0
    for outpoint in inputs:
        output = moved.get(outpoint, _MISSING)
        if output is _MISSING:
            output = held.get(outpoint) or _made(moved, outpoint)
        if output is None:
            return ValidationResult.MISSING_INPUT
        total_in += output[1]
    if total_in < total_out:
        return ValidationResult.OVERSPEND
    return ValidationResult.VALID


def _made(moved: dict, outpoint: tuple) -> tuple | None:
    txid = outpoint[0]
    for index, output in enumerate(moved.get(txid, ())):
        if (txid, index) == outpoint:
            return output
    return None


def validate_batch(
    txs: Iterable[Transaction], utxos: UTXOSet
) -> list[ValidationResult]:
    """V over a sequence in order, each transaction judged against ``utxos``
    as the ones accepted before it leave it (chained spends and double spends
    inside the batch): an overlay maps each outpoint they spent to ``None``
    and each one's txid to its outputs, and the set is only read."""
    held, moved = utxos._utxos, {}
    results = []
    for tx in txs:
        result = _verdict(tx, held, moved)
        results.append(result)
        if result is ValidationResult.VALID:
            for outpoint in tx.inputs:
                moved[outpoint] = None
            moved[tx.txid] = tx.outputs
    return results
