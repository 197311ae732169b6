"""Proof-of-Work admission puzzle (§IV-F).

"The nodes who want to participate in the next round need to solve a PoW
puzzle in advance.  The difficulty of the puzzle is appropriate and equal to
everyone."

The puzzle is a SHA-256 partial-preimage search: find ``nonce`` such that
``H(pk, round, randomness, nonce) < 2^{256-difficulty_bits}``.  Difficulty is
a parameter so tests run at a few bits while benchmarks can sweep it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.hashing import H_int, canonical_bytes

HASH_BITS = 256


@dataclass(frozen=True, slots=True)
class PowPuzzle:
    """Puzzle statement for one round: everyone shares the same target."""

    round_number: int
    randomness: bytes
    difficulty_bits: int

    @property
    def target(self) -> int:
        if not (0 <= self.difficulty_bits < HASH_BITS):
            raise ValueError("difficulty_bits out of range")
        return 1 << (HASH_BITS - self.difficulty_bits)


@dataclass(frozen=True, slots=True)
class PowSolution:
    pk: str
    nonce: int


def solve_pow(puzzle: PowPuzzle, pk: str, max_iters: int = 10_000_000) -> PowSolution:
    """Brute-force the puzzle; deterministic scan so runs are reproducible.

    The paper only uses PoW as a Sybil-resistant admission ticket, so the
    scan order is irrelevant to protocol behaviour.

    ``H`` hashes its parts back to back, so the four parts that are the same
    for every attempt are absorbed once and each attempt extends a copy of
    that state with the nonce: the digest :func:`verify_pow` recomputes with
    ``H_int``, without re-encoding the prefix per attempt.
    """
    target = puzzle.target
    prefix = hashlib.sha256()
    for part in ("POW", pk, puzzle.round_number, puzzle.randomness):
        prefix.update(canonical_bytes(part))
    for nonce in range(max_iters):
        attempt = prefix.copy()
        attempt.update(canonical_bytes(nonce))
        if int.from_bytes(attempt.digest(), "big") < target:
            return PowSolution(pk=pk, nonce=nonce)
    raise RuntimeError(
        f"no PoW solution within {max_iters} iterations at "
        f"{puzzle.difficulty_bits} bits"
    )


def verify_pow(puzzle: PowPuzzle, solution: PowSolution) -> bool:
    """Referee-side check when recording a participant for round r+1."""
    return (
        H_int("POW", solution.pk, puzzle.round_number, puzzle.randomness, solution.nonce)
        < puzzle.target
    )


def expected_attempts(difficulty_bits: int) -> float:
    """Mean number of hash evaluations to solve at this difficulty."""
    return float(2**difficulty_bits)
