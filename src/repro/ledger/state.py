"""Per-shard state maintained by a committee.

"The status of each shard, including the users' identity and Unspent
Transaction Outputs (UTXOs), is maintained by the corresponding committee."
(§III-D)

A shard's state holds only the UTXOs whose owner address maps to that shard.
After each block every committee member "deletes the used ones from their
local UTXO Lists and appends the newly generated outputs that they are
responsible for" (§IV-G), and C_R its global view — that is
:func:`apply_block`, once the block is committed.
"""

from __future__ import annotations

from binascii import hexlify
from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.crypto.hashing import canonical_bytes, seq_bytes
from repro.ledger.transaction import ShardMap, Transaction
from repro.ledger.utxo import (
    _MISSING,
    UTXOSet,
    ValidationResult,
    _exists,
    _not_unspent,
    validate_transaction,
)
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
        # The verdict and output rows at ``_rows_version`` of the UTXO set, by
        # TXList identity; entries hold the sequence, its int8 row and how far
        # the row is filled (see :meth:`verdict_row`).
        self._rows: dict[int, list] = {}
        self._output_rows: dict[int, list] = {}
        self._rows_version = 0
        # What :meth:`digest_items` last listed: outpoint -> the output it
        # encoded, the outpoints in order with their entries' bytes, and the
        # listing's size.  Derived state: never checkpointed, rebuilt on
        # demand.
        self._listing: tuple[dict, list, list, int] = ({}, [], [], seq_size(()))
        # The outpoints :func:`apply_block` spent or created here since that
        # listing, while they are all that moved the set to ``_touched_at``
        # (its ``version``); ``None`` until the first listing, and after
        # anything else moved the set: the next listing rescans it.
        self._touched: list | None = None
        self._touched_at = 0

    def validate(self, tx: Transaction) -> ValidationResult:
        """Run V against this shard's UTXO view.

        Only meaningful for transactions whose *inputs* live in this shard;
        inputs from other shards look like MISSING_INPUT here, which is
        exactly why cross-shard transactions need the inter-committee phase.
        """
        return validate_transaction(tx, self.utxos)

    def verdict_row(self, txs: Sequence[Transaction], budget: int) -> np.ndarray:
        """The honest votes on ``txs[:budget]``: +1 where V finds the
        transaction valid against this view, −1 where not (read-only int8).

        V is pure in ``(tx, UTXO contents)`` and every member of the
        committee judges the same TXList object against this one view, so
        the row is kept per sequence *object* until the set next changes
        (an equal-but-distinct list is a row of its own) and filled lazily,
        in order, up to the largest budget asked: :meth:`validate` sees the
        transactions the longest walk asked so far would, in its order.
        """
        return self._row(self._rows, txs, budget, self._is_valid)

    def output_row(self, txs: Sequence[Transaction], budget: int) -> np.ndarray:
        """The receiving side's votes on ``txs[:budget]``: +1 where the
        outputs are well formed (at least one, every amount positive), −1
        where not; kept like :meth:`verdict_row`."""
        return self._row(self._output_rows, txs, budget, _outputs_well_formed)

    def _is_valid(self, tx: Transaction) -> bool:
        return self.validate(tx) is ValidationResult.VALID

    def _row(
        self,
        rows: dict[int, list],
        txs: Sequence[Transaction],
        budget: int,
        judge: Callable[[Transaction], bool],
    ) -> np.ndarray:
        if self._rows_version != self.utxos.version:
            self._rows.clear()
            self._output_rows.clear()
            self._rows_version = self.utxos.version
        entry = rows.get(id(txs))
        if entry is None or entry[0] is not txs:
            entry = rows[id(txs)] = [txs, np.zeros(len(txs), dtype=np.int8), 0]
        _txs, row, filled = entry
        if budget > filled:
            row[filled:budget] = [
                1 if judge(tx) else -1 for tx in islice(txs, filled, budget)
            ]
            entry[2] = budget
        prefix = row[:budget]
        prefix.flags.writeable = False
        return prefix

    def size(self) -> int:
        return len(self.utxos)

    def digest_items(self) -> UtxoListing:
        """Canonical content for consensus on the final UTXO list.

        Entries are encoded and sized once: one is kept for as long as the
        set maps its outpoint to the same output object, so a round encodes
        only what the last block created, and merges those entries into the
        kept ones in one pass.  When only :func:`apply_block` moved the set
        since the last listing, only the outpoints it touched are looked at;
        otherwise the whole set is.
        """
        utxos = self.utxos
        touched = self._touched
        if touched is not None and self._touched_at == utxos.version:
            current = utxos._utxos  # read only, below
            touched = dict.fromkeys(touched)  # each once, in touch order
        else:
            current = utxos.snapshot()  # a plain dict: C-level probes below
            touched = None
        held = current.get
        listed, keys, parts, size = self._listing
        if touched is None:
            stale = {op for op, output in listed.items() if held(op) is not output}
        else:
            stale = {
                op for op in touched if op in listed and held(op) is not listed[op]
            }
        if stale:
            for op in stale:
                size -= _listing_size(op, listed.pop(op))
            kept = [op not in stale for op in keys]
            keys, parts = list(compress(keys, kept)), list(compress(parts, kept))
        if touched is None:
            fresh = [op for op in current if op not in listed]
        else:
            fresh = [op for op in touched if op in current and op not in listed]
        new: dict[tuple, bytes] = {}
        for op in fresh:
            listed[op] = output = current[op]
            new[op], entry_size = _listing_entry(op, output)
            size += entry_size
        if new:
            # Outpoints order like their entries (hex keeps byte order).  The
            # kept outpoints are one sorted run to timsort: it sorts only the
            # new ones and merges the two.
            keys += new
            keys.sort()
            new_part, kept_part = new.get, iter(parts).__next__
            parts = [new_part(op) or kept_part() for op in keys]
        self._listing = (listed, keys, parts, size)
        self._touched, self._touched_at = [], utxos.version
        return UtxoListing(seq_bytes(parts), size)


def _outputs_well_formed(tx: Transaction) -> bool:
    return bool(tx.outputs) and all(amount > 0 for _address, amount in tx.outputs)


def _listing_entry(outpoint: tuple, output: tuple) -> tuple[bytes, int]:
    """Canonical bytes and size of the listing entry ``(txid.hex(), index,
    address, amount)``: the frames ``canonical_bytes`` would build,
    formatted in place, and :func:`_listing_size`; the generic encoder's
    when a field is not exact (a bool, a subclass, a numpy int)."""
    txid, index = outpoint
    if type(index) is int and type(output) is tuple and len(output) == 2:
        address, amount = output
        if type(address) is str and type(amount) is int:
            hexid, name = hexlify(txid), address.encode("utf-8")
            index_b, amount_b = b"%d" % index, b"%d" % amount
            body = b"s%d:%b\x1fi%d:%b\x1fs%d:%b\x1fi%d:%b" % (
                len(hexid), hexid, len(index_b), index_b,
                len(name), name, len(amount_b), amount_b,
            )
            return b"t%d:%b" % (len(body), body), 18 + len(hexid) + len(address)
    item = (txid.hex(), index, *output)
    return canonical_bytes(item), payload_size(item)


def _listing_size(outpoint: tuple, output: tuple) -> int:
    """``payload_size`` of the same entry: for exact fields, two ints and
    the frame (18 bytes) plus the two strings' lengths."""
    txid, index = outpoint
    if type(index) is int and type(output) is tuple and len(output) == 2:
        address, amount = output
        if type(address) is str and type(amount) is int:
            return 18 + 2 * len(txid) + len(address)
    return payload_size((txid.hex(), index, *output))


def apply_block(
    states: Sequence[ShardState],
    txs: Iterable[Transaction],
    shard_of: ShardMap,
    global_utxos: UTXOSet,
) -> tuple[int, int, int]:
    """Write a committed block to the global view and all m shard views
    (``states[k]`` is shard k) in one transaction-major walk, inputs before
    outputs: each input is spent from the global view and from the shard its
    output's address maps to (``shard_of``), each output added under one
    ``(txid, index)`` tuple to both, so every view sees the operations, in
    order, that filtering the block by itself would give it.  A genesis is a
    block of one.  Callers pass only what ``validate_batch`` accepted against
    the global view: an input it lacks raises ``KeyError``, an output it
    holds ``ValueError``, what came before standing.  Returns ``(spent,
    created, fees)``, fees being inputs minus outputs."""
    m = len(states)
    if any(state.m != m or state.shard != k for k, state in enumerate(states)):
        raise ValueError("states must be all m shard views, in shard order")
    if shard_of.m != m:
        raise ValueError(f"shard_of maps into {shard_of.m} shards, not {m}")
    sets = [state.utxos for state in states]
    # The backing dicts, probed directly; each set's ``version`` moves by
    # its own count of spends and adds, as ``spend``/``add`` would move it
    # (also when one raises: what came before it stands).
    dicts = [utxos._utxos for utxos in sets]
    pool = global_utxos._utxos
    # Each listed shard notes what it spent and created, for its next
    # listing (``ShardState.digest_items``); a touch list that something
    # else outdated, or that outgrew the set, is dropped: the listing
    # rescans instead.
    for state in states:
        if state._touched is not None and state._touched_at != state.utxos.version:
            state._touched = None
    notes = [state._touched for state in states]
    moved = [0] * m
    spent = created = fees = 0
    try:
        for tx in txs:
            for outpoint in tx.inputs:
                output = pool.pop(outpoint, _MISSING)
                if output is _MISSING:
                    raise KeyError(_not_unspent(outpoint))
                spent += 1
                fees += output[1]
                k = shard_of[output[0]]
                del dicts[k][outpoint]
                moved[k] += 1
                if notes[k] is not None:
                    notes[k].append(outpoint)
            txid = tx.txid
            for index, output in enumerate(tx.outputs):
                outpoint = (txid, index)
                if outpoint in pool:
                    raise ValueError(_exists(outpoint))
                pool[outpoint] = output
                created += 1
                fees -= output[1]
                k = shard_of[output[0]]
                dicts[k][outpoint] = output
                moved[k] += 1
                if notes[k] is not None:
                    notes[k].append(outpoint)
    finally:
        global_utxos.version += spent + created
        for state, utxos, count in zip(states, sets, moved):
            utxos.version += count
            if state._touched is not None:
                if len(state._touched) > len(utxos):
                    state._touched = None
                else:
                    state._touched_at = utxos.version
    return spent, created, fees
