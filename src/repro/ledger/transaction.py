"""Transactions in the UTXO model.

An input is the outpoint it spends, the exact tuple ``(txid, index)``; an
output is the exact tuple ``(address, amount)``.  A tuple of atoms is one
the cyclic collector stops tracking at its first pass, so the records the
chain and the UTXO sets hold for the rest of a run cost it nothing.  A
tuple subclass, a named tuple or a slotted record would stay tracked for
its whole life (CI ``lint`` rejects them under ``src/repro``).
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256

from repro.crypto.hashing import H, H_int
from repro.net.message import fields_size


def shard_of_address(address: str, m: int) -> int:
    """Deterministic address → shard assignment (users "almost equally
    divided into m shards", §III-D)."""
    if m <= 0:
        raise ValueError("m must be positive")
    return H_int("SHARD", address) % m


class ShardMap(dict):
    """``address -> shard`` for one ``m``: :func:`shard_of_address`, derived
    once per address.  Each ledger owns one (its workload generator's), so
    the map lives and dies with the ledger that fills it."""

    __slots__ = ("m",)

    def __init__(self, m: int) -> None:
        if m <= 0:
            raise ValueError("m must be positive")
        self.m = m

    def __missing__(self, address: str) -> int:
        shard = self[address] = shard_of_address(address, self.m)
        return shard


class _Derived:
    """What a :class:`Transaction` derives from its fields when it is built:
    slots of their own rather than dataclass fields, so ``fields_size``,
    ``==``, ``hash`` and the pickle stream never see them."""

    __slots__ = ("txid", "wire_size")


@dataclass(frozen=True, slots=True)
class Transaction(_Derived):
    """An immutable transaction.

    ``nonce`` disambiguates otherwise-identical transfers (same payer, payee
    and amount) so txids are unique.  The fee is implicit:
    ``sum(inputs) - sum(outputs)``, computable only against a UTXO set.

    ``txid`` is ``H("TX", inputs, outputs, nonce)`` and ``wire_size`` what
    ``payload_size`` reports for the transaction (the sum of its three
    fields plus framing); both are derived once, here.
    """

    inputs: tuple[tuple[bytes, int], ...]
    outputs: tuple[tuple[str, int], ...]
    nonce: int = 0

    # Spelled out rather than generated: every ``@dataclass`` ``__init__`` has
    # the code identity ``('<string>', 2, '__init__')``, so a profile keyed on
    # that (``pstats``) keeps one constructor's time and drops the rest, and
    # one of these is built per generated transaction.
    def __init__(self, inputs: tuple, outputs: tuple, nonce: int = 0) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "inputs", inputs)
        setattr_(self, "outputs", outputs)
        setattr_(self, "nonce", nonce)
        derived = _formatted_txid_and_size(inputs, outputs, nonce)
        if derived is None:
            derived = H("TX", inputs, outputs, nonce), fields_size(self)
        setattr_(self, "txid", derived[0])
        setattr_(self, "wire_size", derived[1])

    def __reduce__(self) -> tuple:
        # Rebuilt from its fields: the derived slots are never pickled.
        return (Transaction, (self.inputs, self.outputs, self.nonce))

    def output_total(self) -> int:
        return sum([amount for _address, amount in self.outputs])

    def outpoints(self) -> tuple[tuple[bytes, int], ...]:
        """The (txid, index) pairs this transaction consumes."""
        return self.inputs

    def __repr__(self) -> str:
        return (
            f"Transaction({self.txid.hex()[:10]}…, {len(self.inputs)} in, "
            f"{len(self.outputs)} out)"
        )


def _formatted_txid_and_size(
    inputs: tuple, outputs: tuple, nonce: int
) -> tuple[bytes, int] | None:
    """``(txid, wire_size)`` as one ``sha256`` over the frames
    ``canonical_bytes`` would build, formatted in place, and the sizes
    ``payload_size`` would add up.  ``None`` when a field is of another type
    than ``bytes`` / ``str`` / ``int`` (a bool, a float, a numpy int, a
    subclass): ``H`` and ``fields_size`` take those."""
    size = 14  # the three fields' frame, the two sequences' frames, the nonce
    ins = []
    for txid, index in inputs:
        if type(txid) is not bytes or type(index) is not int:
            return None
        digits = b"%d" % index
        pair = b"b%d:%b\x1fi%d:%b" % (len(txid), txid, len(digits), digits)
        ins.append(b"t%d:%b" % (len(pair), pair))
        size += 10 + len(txid)
    outs = []
    for address, amount in outputs:
        if type(address) is not str or type(amount) is not int:
            return None
        name, digits = address.encode("utf-8"), b"%d" % amount
        pair = b"s%d:%b\x1fi%d:%b" % (len(name), name, len(digits), digits)
        outs.append(b"t%d:%b" % (len(pair), pair))
        size += 10 + len(address)
    if type(nonce) is not int:
        return None
    ins_b, outs_b = b"\x1f".join(ins), b"\x1f".join(outs)
    nonce_b = b"%d" % nonce
    txid = sha256(
        b"s2:TXt%d:%bt%d:%bi%d:%b"
        % (len(ins_b), ins_b, len(outs_b), outs_b, len(nonce_b), nonce_b)
    ).digest()
    return txid, size


def make_coinbase(outputs: list[tuple[str, int]], nonce: int = 0) -> Transaction:
    """Genesis / reward transaction creating coins from nothing."""
    return Transaction(inputs=(), outputs=tuple(outputs), nonce=nonce)
