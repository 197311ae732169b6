"""The workload generator's random draws, served from one pre-drawn block.

A transaction costs the generator five or six bounded-integer draws and
two uniforms.  Through ``numpy.random.Generator`` each of those is a full
Python-to-C call (argument parsing, bounds checks, an ndarray-free scalar
path) that costs several times the arithmetic it wraps.  :class:`DrawStream`
draws the PCG64 raw 64-bit outputs 1024 at a time and applies numpy's own
algorithms to them in Python, so every value — and the generator's position
afterwards — is exactly what the same calls on the ``Generator`` would give:

* ``integers(low, high)`` is numpy's ``random_bounded_uint64`` on the range
  ``rng = high - low - 1``: nothing drawn when ``rng == 0``; Lemire's
  bounded draw with its rejection threshold over a 32-bit word when
  ``rng < 2**32 - 1``; a plain 32-bit word when ``rng == 2**32 - 1``; the
  64-bit Lemire variant above that, and a plain 64-bit word at
  ``2**64 - 1``.  A 32-bit word comes from PCG64's half-word buffer
  (``has_uint32`` / ``uinteger``): one raw output serves two of them, low
  half first.
* ``random()`` is ``(raw >> 11) * 2**-53``.
* ``poisson(lam)`` puts the ``Generator`` at the stream's position and
  calls numpy.

``state`` is the stream's logical position in ``bit_generator.state``
form: the bit generator is rewound to where the current block began,
advanced by the outputs consumed, and given the half-word buffer.  Setting
it drops the block.  Nothing outside this class ever sees the read-ahead
position.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Raw outputs drawn per block.
BLOCK = 1024

_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53
_INT64_MIN = -(2**63)
_INT64_END = 2**63


class DrawStream:
    """numpy's scalar ``integers`` / ``random`` / ``poisson`` over one
    PCG64 ``Generator``, stream-exact, at the cost of their bits."""

    __slots__ = ("_gen", "_bitgen", "_raw", "_next", "_base", "_has_half", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = getattr(rng, "bit_generator", None)
        if (
            not isinstance(rng, np.random.Generator)
            or type(bitgen) is not np.random.PCG64
        ):
            # MT19937 builds its double from two 32-bit words and other bit
            # generators buffer differently: transcribing PCG64's algorithms
            # over them would silently draw other numbers.
            name = type(rng if bitgen is None else bitgen).__name__
            raise TypeError(
                f"DrawStream needs a numpy Generator over PCG64, got {name}"
            )
        self._gen = rng
        self._bitgen = bitgen
        self._adopt(bitgen.state)

    def _adopt(self, state: dict[str, Any]) -> None:
        """Start from ``state`` (the bit generator's own) with no block."""
        self._raw: list[int] = []
        self._next = BLOCK  # the next draw refills
        self._base = state
        self._has_half = bool(state["has_uint32"])
        self._half = state["uinteger"]

    def _refill(self) -> None:
        # The bit generator sits where the previous block ended.
        bitgen = self._bitgen
        self._base = bitgen.state
        self._raw = bitgen.random_raw(BLOCK).tolist()

    def _sync(self) -> dict[str, Any]:
        """Move the bit generator to the logical position, drop the block
        and return that position's state."""
        bitgen = self._bitgen
        bitgen.state = self._base
        bitgen.advance(self._next if self._raw else 0)
        state = bitgen.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bitgen.state = state
        self._adopt(state)
        return bitgen.state

    @property
    def state(self) -> dict[str, Any]:
        """The logical ``bit_generator.state`` (a fresh dict)."""
        return self._sync()

    @state.setter
    def state(self, value: dict[str, Any]) -> None:
        bitgen = self._bitgen
        bitgen.state = value
        self._adopt(bitgen.state)

    # -- draws ---------------------------------------------------------------
    def integers(self, low: int, high: int) -> int:
        """``int(Generator.integers(low, high))`` for int64 bounds."""
        excl = high - low
        if 1 < excl <= _U32 and _INT64_MIN <= low and high <= _INT64_END:
            # Lemire over one 32-bit word: the common case, kept inline.
            if self._has_half:
                self._has_half = False
                word = self._half
            else:
                i = self._next
                if i == BLOCK:
                    self._refill()
                    i = 0
                raw = self._raw[i]
                self._next = i + 1
                self._has_half = True
                self._half = raw >> 32
                word = raw & _U32
            m = word * excl
            if (m & _U32) < excl:
                m = self._lemire32_reject(m, excl)
            return low + (m >> 32)
        return self._integers_wide(low, high)

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        raw = self._next64()
        self._has_half = True
        self._half = raw >> 32
        return raw & _U32

    def _next64(self) -> int:
        i = self._next
        if i == BLOCK:
            self._refill()
            i = 0
        raw = self._raw[i]
        self._next = i + 1
        return raw

    def _lemire32_reject(self, m: int, excl: int) -> int:
        threshold = (2**32 - excl) % excl
        while (m & _U32) < threshold:
            m = self._next32() * excl
        return m

    def _integers_wide(self, low: int, high: int) -> int:
        """Every case but Lemire-32: bounds numpy rejects, a range of 0,
        a whole 32-bit word, 64-bit Lemire and a whole 64-bit word."""
        if not _INT64_MIN <= low < high <= _INT64_END:
            raise ValueError(f"integers({low}, {high}): need int64 low < high")
        excl = high - low
        if excl == 1:
            return low  # numpy draws nothing for a range of 0
        if excl == 2**32:
            return low + self._next32()
        if excl == 2**64:
            return low + self._next64()
        m = self._next64() * excl
        if (m & _U64) < excl:
            threshold = (2**64 - excl) % excl
            while (m & _U64) < threshold:
                m = self._next64() * excl
        return low + (m >> 64)

    def random(self) -> float:
        """``float(Generator.random())``."""
        i = self._next
        if i == BLOCK:
            self._refill()
            i = 0
        raw = self._raw[i]
        self._next = i + 1
        return (raw >> 11) * _DOUBLE_SCALE

    def poisson(self, lam: float) -> int:
        """``int(Generator.poisson(lam))``, drawn by numpy itself."""
        self._sync()
        value = int(self._gen.poisson(lam))
        self._adopt(self._bitgen.state)
        return value
