"""Per-shard state maintained by a committee.

"The status of each shard, including the users' identity and Unspent
Transaction Outputs (UTXOs), is maintained by the corresponding committee."
(§III-D)

A shard's state holds only the UTXOs whose owner address maps to that shard.
After each block every committee member "deletes the used ones from their
local UTXO Lists and appends the newly generated outputs that they are
responsible for" (§IV-G) — that is :meth:`apply_block`.
"""

from __future__ import annotations

from typing import Iterable

from repro.ledger.transaction import Transaction, shard_of_address
from repro.ledger.utxo import UTXOSet, ValidationResult, validate_transaction


class ShardState:
    """UTXO view restricted to one shard."""

    def __init__(self, shard: int, m: int) -> None:
        if not (0 <= shard < m):
            raise ValueError(f"shard {shard} out of range for m={m}")
        self.shard = shard
        self.m = m
        self.utxos = UTXOSet()
        # V verdicts at ``_verdicts_version`` of the UTXO set, by transaction
        # identity; entries hold the transaction (see :meth:`validate`).
        self._verdicts: dict[int, tuple[Transaction, ValidationResult]] = {}
        self._verdicts_version = 0

    def owns_address(self, address: str) -> bool:
        return shard_of_address(address, self.m) == self.shard

    def add_genesis(self, tx: Transaction) -> None:
        """Load the shard's slice of a genesis/coinbase transaction."""
        for index, output in enumerate(tx.outputs):
            if self.owns_address(output.address):
                self.utxos.add((tx.txid, index), output)

    def validate(self, tx: Transaction) -> ValidationResult:
        """Run V against this shard's UTXO view.

        Only meaningful for transactions whose *inputs* live in this shard;
        inputs from other shards look like MISSING_INPUT here, which is
        exactly why cross-shard transactions need the inter-committee phase.

        V is pure in ``(tx, UTXO contents)`` and a committee's members all
        judge one TXList against this one view, so the verdict is kept per
        transaction *object* until the set next changes (an
        equal-but-distinct transaction is validated on its own).
        """
        if self._verdicts_version != self.utxos.version:
            self._verdicts.clear()
            self._verdicts_version = self.utxos.version
        entry = self._verdicts.get(id(tx))
        if entry is not None and entry[0] is tx:
            return entry[1]
        result = validate_transaction(tx, self.utxos)
        self._verdicts[id(tx)] = (tx, result)
        return result

    def inputs_are_local(self, tx: Transaction) -> bool:
        """True if every input this shard can see belongs to it.

        Committees only receive transactions routed to them by input
        ownership, so this is a sanity check rather than a filter.
        """
        return all(
            self.owns_address(out.address)
            for op in tx.outpoints()
            if (out := self.utxos.get(op)) is not None
        )

    def apply_block(self, txs: Iterable[Transaction]) -> tuple[int, int]:
        """Apply a block's transactions to the shard view.

        Spends every referenced outpoint present locally and adds every
        output owned by this shard.  Returns ``(spent, created)`` counts.
        """
        spent = created = 0
        for tx in txs:
            for outpoint in tx.outpoints():
                if outpoint in self.utxos:
                    self.utxos.spend(outpoint)
                    spent += 1
            for index, output in enumerate(tx.outputs):
                if self.owns_address(output.address):
                    self.utxos.add((tx.txid, index), output)
                    created += 1
        return spent, created

    def size(self) -> int:
        return len(self.utxos)

    def digest_items(self) -> tuple:
        """Canonical content tuple for consensus on the final UTXO list."""
        return tuple(
            sorted(
                (txid.hex(), index, out.address, out.amount)
                for (txid, index), out in (
                    ((op, self.utxos.get(op)) for op in self.utxos)
                )
            )
        )
