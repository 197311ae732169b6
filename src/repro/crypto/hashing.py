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
    return b"b%d:%b" % (len(obj), obj)


def _enc_str(obj: str) -> bytes:
    data = obj.encode("utf-8")
    return b"s%d:%b" % (len(data), data)


def _enc_bool(obj: bool) -> bytes:
    return b"o1:1" if obj else b"o1:0"


def _enc_int(obj: int) -> bytes:
    digits = b"%d" % obj
    return b"i%d:%b" % (len(digits), digits)


def _enc_float(obj: float) -> bytes:
    return _frame(b"f", repr(obj).encode("ascii"))


def _enc_seq(obj: "tuple | list") -> bytes:
    # Dispatch inline (no ``canonical_bytes`` frame per element): txid lists
    # are encoded element by element.
    encoders = _ENCODERS
    parts = []
    for x in obj:
        enc = encoders.get(type(x))
        parts.append(enc(x) if enc is not None else _canonical_slow(x))
    body = _SEP.join(parts)
    return b"t%d:%b" % (len(body), body)


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
    body = _SEP.join(parts)
    return b"t%d:%b" % (len(body), body)


def fields_bytes(*fields: Any) -> bytes:
    """The leading ``fields`` (one or more) of a tuple as they sit inside
    its frame: ``seq_bytes([fields_bytes(a, b), canonical_bytes(c)])`` is
    ``canonical_bytes((a, b, c))``, so a statement whose head is fixed for
    a session encodes that head once."""
    return _SEP.join(map(canonical_bytes, fields))


def int8_seq_bytes(values: "tuple | list") -> bytes | None:
    """Canonical bytes of a vote vector, byte-identical to
    ``canonical_bytes(tuple(values))``: one table lookup per element and one
    ``join``, as :func:`int8_matrix_bytes` does per row.

    ``None`` unless every element is an exact ``int`` in [-128, 127]: a
    ``bool`` encodes as a bool, not as 0 / 1, and a numpy scalar, a float or
    a wider int is the generic encoder's to encode."""
    if not set(map(type, values)) <= _EXACT_INT:
        return None
    try:
        return seq_bytes(map(_INT8_BY_VALUE.__getitem__, values))
    except KeyError:  # an int outside int8
        return None


def int8_matrix_bytes(array: Any) -> bytes:
    """Canonical bytes of a 2-D int8 array: byte-identical to
    ``canonical_bytes(tuple(map(tuple, array.tolist())))`` (a tuple of rows
    of ints), built from one table lookup per element and one ``join`` per
    row instead of a Python-level encode per vote."""
    table = _INT8_ENC.__getitem__
    return seq_bytes([seq_bytes(map(table, row.tobytes())) for row in array])


#: ``_enc_int`` of every int8 value, indexed by the value's unsigned byte.
_INT8_ENC = [_enc_int(v) for v in (*range(128), *range(-128, 0))]
#: The same encodings keyed by the value itself.
_INT8_BY_VALUE = {v: _enc_int(v) for v in range(-128, 128)}
_EXACT_INT = frozenset((int,))


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
