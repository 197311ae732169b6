"""Transactions in the UTXO model."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


# The three records below spell out the ``__init__`` that ``@dataclass`` would
# generate: every generated one has the code identity ``('<string>', 2,
# '__init__')``, so a profile keyed on that (``pstats``) keeps one constructor's
# time and drops the rest, and these are built once per generated transaction.
@dataclass(frozen=True, slots=True)
class TxInput:
    """Reference to an unspent output: ``(txid, index)``."""

    txid: bytes
    index: int

    def __init__(self, txid: bytes, index: int) -> None:
        object.__setattr__(self, "txid", txid)
        object.__setattr__(self, "index", index)


@dataclass(frozen=True, slots=True)
class TxOutput:
    """A spendable coin: owner address and amount."""

    address: str
    amount: int

    def __init__(self, address: str, amount: int) -> None:
        object.__setattr__(self, "address", address)
        object.__setattr__(self, "amount", amount)


@dataclass(frozen=True)
class Transaction:
    """An immutable transaction.

    ``nonce`` disambiguates otherwise-identical transfers (same payer, payee
    and amount) so txids are unique.  The fee is implicit:
    ``sum(inputs) - sum(outputs)``, computable only against a UTXO set.
    """

    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    nonce: int = 0

    def __init__(self, inputs: tuple, outputs: tuple, nonce: int = 0) -> None:
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "nonce", nonce)

    @cached_property
    def txid(self) -> bytes:
        return H(
            "TX",
            tuple((i.txid, i.index) for i in self.inputs),
            tuple((o.address, o.amount) for o in self.outputs),
            self.nonce,
        )

    @cached_property
    def wire_size(self) -> int:
        """Modelled wire size (what ``payload_size`` reports for this
        transaction): the value is immutable, so it is sized once."""
        return fields_size(self)

    def output_total(self) -> int:
        return sum(o.amount for o in self.outputs)

    def outpoints(self) -> tuple[tuple[bytes, int], ...]:
        """The (txid, index) pairs this transaction consumes."""
        return tuple((i.txid, i.index) for i in self.inputs)

    def __repr__(self) -> str:
        return (
            f"Transaction({self.txid.hex()[:10]}…, {len(self.inputs)} in, "
            f"{len(self.outputs)} out)"
        )


def make_transfer(
    source: tuple[bytes, int],
    source_amount: int,
    payee: str,
    amount: int,
    change_address: str,
    fee: int = 1,
    nonce: int = 0,
) -> Transaction:
    """Build a single-input transfer paying ``amount`` to ``payee`` with the
    remainder (minus ``fee``) returned to ``change_address``.

    Raises if the source cannot cover amount + fee — workload code should
    only build coverable transfers (invalid transactions are injected
    deliberately, not by accident).
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
    outputs = [TxOutput(payee, amount)]
    if change > 0:
        outputs.append(TxOutput(change_address, change))
    return Transaction(
        inputs=(TxInput(*source),), outputs=tuple(outputs), nonce=nonce
    )


def make_coinbase(outputs: list[TxOutput], nonce: int = 0) -> Transaction:
    """Genesis / reward transaction creating coins from nothing."""
    return Transaction(inputs=(), outputs=tuple(outputs), nonce=nonce)
