"""Collision-resistant hash function wrapper.

The paper assumes access to an external random oracle ``H`` which is
collision resistant.  We use SHA-256 with a canonical, injective encoding of
structured inputs so that ``H(a, b) != H(ab)``-style ambiguities cannot
produce accidental collisions.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter
from typing import Any, Iterable

_SEP = b"\x1f"


def _frame(tag: bytes, payload: bytes) -> bytes:
    # b"%d" formats in C; measurably faster than str(len).encode() + concat
    # on this sub-microsecond path.
    return tag + b"%d:" % len(payload) + payload


def _enc_bytes(obj: bytes) -> bytes:
    return _frame(b"b", obj)


def _enc_str(obj: str) -> bytes:
    return _frame(b"s", obj.encode("utf-8"))


def _enc_bool(obj: bool) -> bytes:
    return b"o1:1" if obj else b"o1:0"


def _enc_int(obj: int) -> bytes:
    digits = b"%d" % obj
    return b"i%d:%b" % (len(digits), digits)


def _enc_float(obj: float) -> bytes:
    return _frame(b"f", repr(obj).encode("ascii"))


def _enc_seq(obj: "tuple | list") -> bytes:
    # Dispatch inline (no ``canonical_bytes`` frame per element): vote
    # vectors and txid lists are encoded element by element.
    encoders = _ENCODERS
    parts = []
    for x in obj:
        enc = encoders.get(type(x))
        parts.append(enc(x) if enc is not None else _canonical_slow(x))
    return _frame(b"t", _SEP.join(parts))


def _enc_set(obj: "set | frozenset") -> bytes:
    return _frame(b"e", _SEP.join(sorted([canonical_bytes(x) for x in obj])))


def _enc_dict(obj: dict) -> bytes:
    items = sorted(
        (canonical_bytes(k), canonical_bytes(v)) for k, v in obj.items()
    )
    return _frame(b"d", _SEP.join(k + b"=" + v for k, v in items))


#: Exact-type fast dispatch: one dict probe replaces the isinstance chain
#: for the builtins that make up virtually every hashed structure.  The
#: encoding (and therefore every digest, txid and signature) is unchanged;
#: subclasses and numpy scalars fall through to :func:`_canonical_slow`,
#: which preserves the original isinstance semantics exactly.
_ENCODERS = {
    bytes: _enc_bytes,
    str: _enc_str,
    bool: _enc_bool,  # must shadow int (bool is an int subclass)
    int: _enc_int,
    float: _enc_float,
    tuple: _enc_seq,
    list: _enc_seq,
    set: _enc_set,
    frozenset: _enc_set,
    dict: _enc_dict,
    type(None): lambda obj: b"n0:",
}


def seq_bytes(parts: "Iterable[bytes]") -> bytes:
    """Canonical bytes of a tuple or list whose elements encode to ``parts``
    (for leaves that keep their elements' bytes)."""
    return _frame(b"t", _SEP.join(parts))


def int8_matrix_bytes(array: Any) -> bytes:
    """Canonical bytes of a 2-D int8 array: byte-identical to
    ``canonical_bytes(tuple(map(tuple, array.tolist())))`` (a tuple of rows
    of ints), built from one table lookup per element and one ``join`` per
    row instead of a Python-level encode per vote."""
    table = _INT8_ENC.__getitem__
    return seq_bytes([seq_bytes(map(table, row.tobytes())) for row in array])


#: ``_enc_int`` of every int8 value, indexed by the value's unsigned byte.
_INT8_ENC = [_enc_int(v) for v in (*range(128), *range(-128, 0))]


def _canonical_slow(obj: Any) -> bytes:
    """Encode-once leaves, subclasses of the fast-dispatched builtins and
    numpy scalars."""
    if hasattr(type(obj), "canonical"):
        # An immutable value that caches its own bytes (docs/architecture.md,
        # "per-transaction data path"); one dict probe from now on.
        _ENCODERS[type(obj)] = attrgetter("canonical")
        return obj.canonical
    if isinstance(obj, bytes):
        return _enc_bytes(obj)
    if isinstance(obj, str):
        return _enc_str(obj)
    if isinstance(obj, bool):  # must precede int check
        return _enc_bool(obj)
    if isinstance(obj, int):
        return _enc_int(obj)
    if obj is None:
        return b"n0:"
    if isinstance(obj, float):
        return _enc_float(obj)
    if isinstance(obj, (tuple, list)):
        return _enc_seq(obj)
    if isinstance(obj, (set, frozenset)):
        return _enc_set(obj)
    if isinstance(obj, dict):
        return _enc_dict(obj)
    # NumPy scalars appear wherever protocol code hashes vote vectors;
    # encode them exactly as their Python equivalents.
    import numpy as np

    if isinstance(obj, np.integer):
        return _enc_int(int(obj))
    if isinstance(obj, np.floating):
        return _enc_float(float(obj))
    if isinstance(obj, np.bool_):
        return _enc_bool(bool(obj))
    raise TypeError(f"canonical_bytes cannot encode {type(obj).__name__}")


def canonical_bytes(obj: Any) -> bytes:
    """Injectively encode ``obj`` (nested tuples/lists/ints/str/bytes/None/bool)
    into bytes.

    The encoding is prefix-free per element: each element is rendered as
    ``<typetag><length>:<payload>`` so distinct structures never collide.
    This function sits under every digest, txid and signature in the
    repository, so it dispatches on exact type first (see ``_ENCODERS``).
    """
    enc = _ENCODERS.get(type(obj))
    if enc is not None:
        return enc(obj)
    return _canonical_slow(obj)


def H(*parts: Any) -> bytes:
    """The protocol's collision-resistant hash function.

    Accepts any number of canonically-encodable parts and returns a 32-byte
    digest.  ``H(a, b)`` is the paper's ``H(a || b)`` with an injective
    pairing.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(canonical_bytes(part))
    return h.digest()


def H_int(*parts: Any) -> int:
    """``H`` interpreted as a 256-bit unsigned integer (for mod-m sortition
    and difficulty comparisons)."""
    return int.from_bytes(H(*parts), "big")


def hexdigest(*parts: Any) -> str:
    """Hex rendering of :func:`H`, convenient for logs and block ids."""
    return H(*parts).hex()
