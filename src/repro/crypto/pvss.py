"""Publicly Verifiable Secret Sharing with SCRAPE's dual-code check.

This implements the algebraic core of SCRAPE [Cascudo & David, ACNS'17],
which the paper uses inside the referee committee to generate each round's
randomness (§IV-F, §V-A):

* Shamir sharing of a secret ``s`` in Z_p with reconstruction threshold
  ``t`` (polynomial degree ``t-1``), participants at evaluation points
  ``1..n``;
* Feldman coefficient commitments ``C_j = g^{a_j}`` plus per-share
  commitments ``v_i = g^{σ_i}`` so *anyone* can verify a dealing;
* SCRAPE's information-theoretic batch verification: the share vector
  ``(σ_1, …, σ_n)`` is a Reed–Solomon codeword iff it is orthogonal to every
  word of the dual code, whose words are ``c_i = m(i)·λ_i`` for polynomials
  ``m`` of degree ≤ n-t-1 and ``λ_i = Π_{j≠i}(i-j)^{-1}``.  Checking one
  random dual word catches an inconsistent dealing with probability
  ``1 - 1/p``.

In real SCRAPE the shares travel encrypted under participants' keys with
DLEQ proofs; in this reproduction the private delivery is provided by the
network simulator's point-to-point channels, which is the property the
encryption exists to provide.  The *verification algebra* — the part the
unbiasability proof leans on — is implemented in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.crypto.field import FIELD, GROUP, PrimeField, SchnorrGroup


@dataclass(frozen=True)
class PVSSDealing:
    """A public dealing: coefficient and share commitments (no secrets)."""

    n: int
    threshold: int
    coeff_commitments: tuple[int, ...]
    share_commitments: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeff_commitments) != self.threshold:
            raise ValueError("need exactly `threshold` coefficient commitments")
        if len(self.share_commitments) != self.n:
            raise ValueError("need exactly n share commitments")


@dataclass(frozen=True)
class PVSSSecrets:
    """The dealer-private side: the secret and all raw shares."""

    secret: int
    shares: tuple[int, ...]  # shares[i] belongs to participant i+1


def deal(
    secret: int,
    n: int,
    threshold: int,
    rng: np.random.Generator,
    field: PrimeField = FIELD,
    group: SchnorrGroup = GROUP,
) -> tuple[PVSSDealing, PVSSSecrets]:
    """Share ``secret`` among ``n`` participants, ``threshold`` to recover."""
    if not (1 <= threshold <= n):
        raise ValueError(f"threshold {threshold} out of range for n={n}")
    coeffs = field.random_poly(threshold - 1, secret, rng)
    shares = tuple(field.poly_eval(coeffs, i) for i in range(1, n + 1))
    dealing = PVSSDealing(
        n=n,
        threshold=threshold,
        coeff_commitments=tuple(group.commit(a) for a in coeffs),
        share_commitments=tuple(group.commit(s) for s in shares),
    )
    return dealing, PVSSSecrets(secret=secret % field.p, shares=shares)


def _dual_code_word(
    n: int, threshold: int, rng: np.random.Generator, field: PrimeField
) -> list[int]:
    """A random word ``c_i = m(i)·λ_i`` of the dual Reed–Solomon code,
    ``λ_i = 1 / ∏_{j≠i}(i − j)`` over the points 1..n
    (:meth:`PrimeField.consecutive_weights`: O(n), where the product loop
    took n² steps)."""
    p = field.p
    m_coeffs = field.random_poly(n - threshold - 1, int(rng.integers(1, 1 << 61)), rng)
    word = [
        field.poly_eval(m_coeffs, i) * lam % p
        for i, lam in enumerate(field.consecutive_weights(n), 1)
    ]
    return word


def scrape_check(
    dealing: PVSSDealing,
    rng: np.random.Generator,
    field: PrimeField = FIELD,
    group: SchnorrGroup = GROUP,
    repetitions: int = 1,
) -> bool:
    """SCRAPE public verification of a dealing.

    Checks ``Π_i v_i^{c_i} == 1`` for ``repetitions`` random dual-code words,
    plus consistency of the claimed share commitments with the Feldman
    coefficient commitments for share 1 (cheap anchor tying the two vectors
    together).  A dealing whose share vector is not a degree-(t-1) codeword
    fails each repetition except with probability 1/p.
    """
    if dealing.n == dealing.threshold:
        # Dual code is trivial; fall back to checking every share commitment
        # against the Feldman commitments.
        return all(
            _share_commitment_consistent(dealing, i, group)
            for i in range(1, dealing.n + 1)
        )
    for _ in range(repetitions):
        word = _dual_code_word(dealing.n, dealing.threshold, rng, field)
        acc = 1
        for v_i, c_i in zip(dealing.share_commitments, word):
            acc = group.mul(acc, group.exp(v_i, c_i))
        if acc != group.identity:
            return False
    # The dual-code test proves v_i = g^{f(i)} for SOME degree-(t-1) f; anchor
    # it to the committed polynomial so the dealer cannot swap polynomials.
    return _share_commitment_consistent(dealing, 1, group) and (
        dealing.n < 2 or _share_commitment_consistent(dealing, 2, group)
    )


def _share_commitment_consistent(
    dealing: PVSSDealing, index: int, group: SchnorrGroup
) -> bool:
    expected = 1
    power = 1
    for c_j in dealing.coeff_commitments:
        expected = group.mul(expected, group.exp(c_j, power))
        power = (power * index) % group.p
    return dealing.share_commitments[index - 1] == expected


def verify_dealing(
    dealing: PVSSDealing,
    rng: np.random.Generator,
    field: PrimeField = FIELD,
    group: SchnorrGroup = GROUP,
) -> bool:
    """Full public verification as run by every honest referee member."""
    return scrape_check(dealing, rng, field=field, group=group)


def verify_revealed_share(
    dealing: PVSSDealing, index: int, share: int, group: SchnorrGroup = GROUP
) -> bool:
    """Check a share revealed during reconstruction against its commitment."""
    if not (1 <= index <= dealing.n):
        return False
    return group.commit(share) == dealing.share_commitments[index - 1]


def reconstruct(
    points: Sequence[tuple[int, int]],
    threshold: int,
    field: PrimeField = FIELD,
) -> int:
    """Recover the secret from ≥ ``threshold`` verified ``(index, share)``
    points via Lagrange interpolation at zero."""
    if len(points) < threshold:
        raise ValueError(
            f"need at least {threshold} shares to reconstruct, got {len(points)}"
        )
    return field.interpolate_at_zero(points[:threshold])
