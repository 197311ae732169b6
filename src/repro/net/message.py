"""Message envelopes and wire-size estimation."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable

_SIG_SIZE = 64  # public key reference + MAC tag, like an Ed25519 signature
_HASH_SIZE = 32
_INT_SIZE = 8

_NP_SCALAR_TYPES: tuple[type, ...] | None = None


def _np_scalar_types() -> tuple[type, ...]:
    global _NP_SCALAR_TYPES
    if _NP_SCALAR_TYPES is None:
        import numpy as np

        _NP_SCALAR_TYPES = (np.integer, np.floating)
    return _NP_SCALAR_TYPES


def _size_container(obj: Any) -> int:
    # Dispatch inline (no generator, no ``payload_size`` frame per
    # element): echo lists and member lists are sized element by element.
    sizers = _SIZERS
    total = 2
    for x in obj:
        sizer = sizers.get(type(x))
        total += sizer(x) if sizer is not None else _size_slow(x)
    return total


def _size_dict(obj: dict) -> int:
    return _size_container(chain.from_iterable(obj.items()))


def _size_one_byte(obj: Any) -> int:
    return 1


def _size_int(obj: Any) -> int:
    return _INT_SIZE


def _size_signature(obj: Any) -> int:
    return _SIG_SIZE


def _size_vrf_output(obj: Any) -> int:
    return _SIG_SIZE + _HASH_SIZE


def fields_size(obj: Any) -> int:
    """Size of a dataclass instance as ``payload_size`` models one: the sum
    of its fields plus framing.  For value types that cache their own
    ``wire_size`` (which must not recurse into it)."""
    return _size_container([getattr(obj, f.name) for f in dataclasses.fields(obj)])


def int_matrix_size(rows: int, cols: int) -> int:
    """Closed-form size of a ``rows`` x ``cols`` tuple-of-tuples of ints."""
    return 2 + rows * (2 + _INT_SIZE * cols)


def seq_size(sizes: "Iterable[int]") -> int:
    """Size of a tuple or list whose elements have the given ``sizes`` (for
    leaves that keep their elements' sizes)."""
    return 2 + sum(sizes)


def sig_list_size(n: int) -> int:
    """Closed-form size of a list of ``n`` signatures."""
    return 2 + _SIG_SIZE * n


def _sizer_for(cls: type) -> Callable[[Any], int]:
    """The sizer of a type outside the builtin table: immutable values that
    know their own ``wire_size`` report it, subclasses of the
    builtins size like their base, signatures and VRF outputs get their
    conventional fixed sizes, dataclasses are the sum of their fields plus
    framing, numpy scalars are fixed-width ints."""
    if hasattr(cls, "wire_size"):
        return attrgetter("wire_size")
    if issubclass(cls, bool):
        return _size_one_byte
    if issubclass(cls, (int, float)):
        return _size_int
    if issubclass(cls, (bytes, str)):
        return len
    if issubclass(cls, (tuple, list, set, frozenset)):
        return _size_container
    if issubclass(cls, dict):
        return _size_dict
    type_name = cls.__name__
    if type_name == "Signature":
        return _size_signature
    if type_name == "VRFOutput":
        return _size_vrf_output
    if dataclasses.is_dataclass(cls):
        names = tuple(f.name for f in dataclasses.fields(cls))
        return lambda obj: _size_container([getattr(obj, n) for n in names])
    if issubclass(cls, _np_scalar_types()):
        return _size_int
    raise TypeError(f"payload_size cannot size {type_name}")


def _size_slow(obj: Any) -> int:
    """First sight of a type: resolve its sizer once and register it under
    the exact type, so every later object of that type — the signatures in
    every echo list, the identities in every member list — is one dict
    probe like the builtins."""
    cls = type(obj)
    sizer = _SIZERS[cls] = _sizer_for(cls)
    return sizer(obj)


#: Exact-type dispatch.  Seeded with the builtins that dominate real
#: payloads (``bool``/``int`` must be distinct entries: bool is an int
#: subclass, but ``type(obj)`` lookups never confuse them); every other
#: type registers itself on first sight (:func:`_size_slow`).  A type's
#: size rule is fixed by the type alone, so the table only ever grows by
#: the number of payload types in the program.
_SIZERS: dict[type, Callable[[Any], int]] = {
    bool: _size_one_byte,
    int: _size_int,
    float: _size_int,
    bytes: len,
    str: len,
    tuple: _size_container,
    list: _size_container,
    set: _size_container,
    frozenset: _size_container,
    dict: _size_dict,
    type(None): _size_one_byte,
}


def payload_size(obj: Any) -> int:
    """Estimate the wire size of a payload in bytes.

    This drives the byte counters behind Table II; it is a *model* of
    serialized size (ints 8 B, hashes 32 B, signatures 64 B, strings/bytes
    their length, containers the sum of elements plus small framing), not an
    actual codec.  Consistency across protocols is what matters for the
    complexity comparison.

    The implementation dispatches on exact type (one dict probe);
    ``payload_size`` runs once per simulated send or fan-out and once per
    element of every container payload, so it is one of the hottest
    functions in the repository (perf case ``micro:message_pump``).
    """
    sizer = _SIZERS.get(type(obj))
    if sizer is not None:
        return sizer(obj)
    return _size_slow(obj)


@dataclass(slots=True)
class Message:
    """One in-flight message.

    ``tag`` selects the handler on the receiving node (the paper's message
    tags: PROPOSE, ECHO, CONFIRM, CONFIG, MEM_LIST, SEMI_COM, TX_LIST, VOTE,
    INTRA, NEW, …).  ``channel`` is the latency class the topology assigned
    to the (sender, recipient) pair.

    Envelopes are pooled by :class:`~repro.net.simulator.Network`: after a
    delivery callback returns, the envelope is reused — by the next
    recipient of the same fan-out, then by a later send.  Handlers must
    therefore never keep the envelope itself past the callback — keeping
    the *payload* is fine (payloads are never pooled).
    """

    sender: int
    recipient: int
    tag: str
    payload: Any
    size: int
    channel: str
    send_time: float
    deliver_time: float

    def __repr__(self) -> str:
        return (
            f"Message({self.sender}->{self.recipient} {self.tag} "
            f"{self.size}B @{self.deliver_time:.2f})"
        )
