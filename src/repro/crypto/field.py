"""Prime-field and Schnorr-group arithmetic for the SCRAPE beacon.

SCRAPE [Cascudo & David, ACNS'17] shares secrets with Shamir polynomials over
a prime field Z_p and publishes Feldman-style commitments in a group of order
p.  We instantiate:

* the share field with the Mersenne prime ``p = 2^61 - 1``;
* the commitment group as the order-``p`` subgroup of ``Z_q^*`` where
  ``q = k·p + 1`` is prime (found once at import by deterministic
  Miller-Rabin, which is exact for 64-bit-scale inputs with the standard
  witness set).

Everything here is genuine number theory — no simulation shortcuts — because
the beacon's unbiasability argument (§V-A) rests on the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

# Deterministic Miller-Rabin witness set: correct for all n < 3.317e24
# (Sorenson & Webster), far beyond the ~2^67 moduli used here.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic in Z_p with polynomial helpers used by Shamir sharing."""

    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("no inverse of 0 in a field")
        # extended Euclid; the same value as Fermat's a^(p-2), at less cost
        return pow(a, -1, self.p)

    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate ``coeffs[0] + coeffs[1]·x + …`` by Horner's rule."""
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def random_poly(self, degree: int, secret: int, rng) -> list[int]:
        """Degree-``degree`` polynomial with constant term ``secret``.

        ``rng`` is a ``numpy.random.Generator``; coefficients are drawn
        uniformly from Z_p (rejection-free because we draw 64-bit ints and
        reduce — bias is < 2^-3 of a ulp for p = 2^61-1, irrelevant here, but
        we still draw two words and reduce to keep bias < 2^-60).
        """
        coeffs = [secret % self.p]
        for _ in range(degree):
            hi = int(rng.integers(0, 1 << 62))
            lo = int(rng.integers(0, 1 << 62))
            coeffs.append(((hi << 62) | lo) % self.p)
        return coeffs

    def consecutive_weights(self, t: int) -> list[int]:
        """The weights ``1 / ∏_{j≠i}(x_i − x_j)`` of t consecutive points
        ``x_i = a + i``: ``(−1)^{t−1−i} / (i!·(t−1−i)!)``, whatever ``a``,
        from one inversion (needs t <= p)."""
        p = self.p
        fact = 1
        for k in range(2, t):
            fact = fact * k % p
        inv_fact = [1] * t  # 1/k!
        if t:
            inv_fact[-1] = self.inv(fact)
        for k in range(t - 1, 1, -1):
            inv_fact[k - 1] = inv_fact[k] * k % p
        return [
            w if (t - 1 - i) % 2 == 0 else -w % p
            for i, w in enumerate(a * b % p for a, b in zip(inv_fact, reversed(inv_fact)))
        ]

    def lagrange_coeffs_at_zero(self, xs: Sequence[int]) -> list[int]:
        """Lagrange basis coefficients L_i(0) for interpolation at x = 0.

        For consecutive xs (a beacon's shares 1..t when none is withheld)
        ``1/∏_{j≠i}(x_i − x_j)`` is :meth:`consecutive_weights`, and
        ``∏_{j≠i}(−x_j)`` a prefix times a suffix product: O(t) work and one
        inversion, where the product loop below takes O(t²) and t."""
        p, t = self.p, len(xs)
        if t and list(xs) == list(range(xs[0], xs[0] + t)):
            suffix = [1] * (t + 1)
            for i in range(t - 1, -1, -1):
                suffix[i] = suffix[i + 1] * -xs[i] % p
            coeffs, prefix = [], 1
            for i, (xi, w) in enumerate(zip(xs, self.consecutive_weights(t))):
                coeffs.append(prefix * suffix[i + 1] % p * w % p)
                prefix = prefix * -xi % p
            return coeffs
        coeffs = []
        for i, xi in enumerate(xs):
            num, den = 1, 1
            for j, xj in enumerate(xs):
                if i == j:
                    continue
                num = num * (-xj) % self.p
                den = den * (xi - xj) % self.p
            coeffs.append(num * self.inv(den) % self.p)
        return coeffs

    def interpolate_at_zero(self, points: Iterable[tuple[int, int]]) -> int:
        """Reconstruct f(0) from ``(x, f(x))`` points (Shamir recovery)."""
        pts = list(points)
        xs = [x for x, _ in pts]
        if len(set(xs)) != len(xs):
            raise ValueError("duplicate x coordinates")
        lag = self.lagrange_coeffs_at_zero(xs)
        return sum(l * y for l, (_, y) in zip(lag, pts)) % self.p


@dataclass(frozen=True)
class SchnorrGroup:
    """Order-``p`` subgroup of Z_q^* with generator ``g`` (q = k·p + 1).

    The base of every commitment is ``g``, so the group keeps a fixed-base
    table built once on construction (not a field): row ``i`` holds
    ``g^(j·256^i)`` for ``j`` in 0..255, one row per byte of an exponent
    below ``p`` — 8 × 256 entries for the 61-bit share field.
    """

    q: int
    p: int
    g: int

    def __post_init__(self) -> None:
        rows = []
        base = self.g
        for _ in range((self.p.bit_length() + 7) // 8):
            row = [1]
            for _ in range(255):
                row.append(row[-1] * base % self.q)
            rows.append(tuple(row))
            base = row[-1] * base % self.q  # g^(256^(i+1))
        object.__setattr__(self, "_rows", tuple(rows))

    def exp(self, base: int, e: int) -> int:
        return pow(base, e % self.p, self.q)

    def commit(self, e: int) -> int:
        """Pedersen-free Feldman commitment g^e mod q: one table entry per
        byte of ``e mod p``, equal to ``pow(g, e % p, q)``."""
        q, rows = self.q, self._rows
        acc = 1
        for row, byte in zip(rows, (e % self.p).to_bytes(len(rows), "little")):
            acc = acc * row[byte] % q
        return acc

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    @property
    def identity(self) -> int:
        return 1


def _find_group(p: int) -> SchnorrGroup:
    """Find the smallest even k with q = k·p+1 prime, and a generator of the
    order-p subgroup."""
    k = 2
    while True:
        q = k * p + 1
        if is_prime(q):
            # g = h^k has order p unless it collapses to 1.
            for h in range(2, 200):
                g = pow(h, k, q)
                if g != 1:
                    # order divides p (prime), and g != 1 => order == p
                    return SchnorrGroup(q=q, p=p, g=g)
        k += 2


#: Share field: Mersenne prime 2^61 - 1.
FIELD = PrimeField((1 << 61) - 1)

#: Commitment group of order FIELD.p (computed once at import; k is tiny).
GROUP = _find_group(FIELD.p)
