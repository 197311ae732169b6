"""Per-shard state maintained by a committee.

"The status of each shard, including the users' identity and Unspent
Transaction Outputs (UTXOs), is maintained by the corresponding committee."
(§III-D)

A shard's state holds only the UTXOs whose owner address maps to that shard.
After each block every committee member "deletes the used ones from their
local UTXO Lists and appends the newly generated outputs that they are
responsible for" (§IV-G) — that is :func:`apply_block`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.crypto.hashing import canonical_bytes, seq_bytes
from repro.ledger.transaction import Transaction, shard_of_address
from repro.ledger.utxo import UTXOSet, ValidationResult, validate_transaction
from repro.net.message import payload_size, seq_size


@dataclass(frozen=True, slots=True)
class UtxoListing:
    """A shard's final UTXO list as Algorithm 3 carries it.

    It hashes and sizes exactly like the sorted tuple of
    ``(txid.hex(), index, address, amount)`` entries it stands for
    (``canonical_bytes`` / ``payload_size`` treat it as a leaf), and two
    listings are equal when those bytes are.
    """

    canonical: bytes
    wire_size: int = field(compare=False)


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
        # What :meth:`digest_items` last listed: outpoint -> the output it
        # encoded, and the listing as parallel lists in outpoint order
        # (outpoints, entry bytes, entry sizes).  Derived state: never
        # checkpointed, rebuilt on demand.
        self._listing: tuple[dict, list, list, list] = ({}, [], [], [])

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

    def size(self) -> int:
        return len(self.utxos)

    def digest_items(self) -> UtxoListing:
        """Canonical content for consensus on the final UTXO list.

        Entries are encoded and sized once: one is reused for as long as the
        set maps its outpoint to the same output object, so a round encodes
        only what the last block created.
        """
        current = self.utxos.snapshot()  # a plain dict: C-level probes below
        held = current.get
        listed, keys, parts, sizes = self._listing
        for op in [op for op, output in listed.items() if held(op) is not output]:
            at = bisect_left(keys, op)
            del listed[op], keys[at], parts[at], sizes[at]
        # Outpoints order like their entries (hex keeps byte order); taken in
        # order, a listing built from nothing only ever appends.
        for op in sorted(op for op in current if op not in listed):
            output = current[op]
            item = (op[0].hex(), op[1], output.address, output.amount)
            part, size = canonical_bytes(item), payload_size(item)
            at = bisect_left(keys, op)
            listed[op] = output
            keys.insert(at, op)
            parts.insert(at, part)
            sizes.insert(at, size)
        return UtxoListing(seq_bytes(parts), seq_size(sizes))


def apply_block(
    states: Sequence[ShardState], txs: Iterable[Transaction]
) -> tuple[int, int]:
    """Apply a block's transactions to all m shard views (``states[k]`` is
    shard k) in one walk.

    Every referenced outpoint is spent in whichever shard holds it and every
    output is added to the one shard its address maps to, so each shard sees
    exactly the operations, in the order, that filtering the block by itself
    would give it.  A genesis/coinbase transaction is a block of one.
    Returns ``(spent, created)`` counts.
    """
    m = len(states)
    if any(state.m != m or state.shard != k for k, state in enumerate(states)):
        raise ValueError("states must be all m shard views, in shard order")
    sets = [state.utxos for state in states]
    spent = created = 0
    for tx in txs:
        for outpoint in tx.outpoints():
            for utxos in sets:
                if outpoint in utxos:
                    utxos.spend(outpoint)
                    spent += 1
        txid = tx.txid
        for index, output in enumerate(tx.outputs):
            sets[shard_of_address(output.address, m)].add((txid, index), output)
            created += 1
    return spent, created
