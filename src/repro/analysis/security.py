"""Security analysis (§V, Eq. 3–4, Fig. 5, Table I failure column).

The committee-sampling failure model: drawing ``c`` of ``n`` nodes without
replacement from a population containing ``t`` malicious ones, a committee
*fails* when at least half its members are malicious::

    Pr[X >= c/2] = Σ_{x=⌈c/2⌉}^{c}  C(t,x)·C(n-t,c-x) / C(n,c)   (Eq. 3)

bounded by the hypergeometric Chernoff bound ``exp(-D(1/2 ‖ f)·c)`` with
``f = t/n (+1/c correction)``, which for ``t < n/3`` is at most
``exp(-c/12)`` (Eq. 4).  Partial sets fail when *all* λ members are
malicious: ``(1/3)^λ``.  A round fails if any committee or any partial set
fails: ``m·(e^{-c/12} + (1/3)^λ)`` (Table I).
"""

from __future__ import annotations

import numpy as np


def committee_failure_exact(n: int, t: int, c) -> np.ndarray | float:
    """Exact hypergeometric tail ``Pr[X >= c/2]`` (vectorized over ``c``).

    This is the quantity Fig. 5 plots for n=2000, t=666.  It is the one
    SciPy call in the package (the ``analysis`` extra), imported here so
    that importing :mod:`repro.analysis` costs no SciPy.
    """
    from scipy import stats

    c_arr = np.atleast_1d(np.asarray(c, dtype=np.int64))
    if np.any(c_arr < 1) or np.any(c_arr > n):
        raise ValueError("committee size out of range")
    if not (0 <= t <= n):
        raise ValueError("t out of range")
    # Pr[X >= ceil(c/2)] = sf(ceil(c/2) - 1)
    thresholds = np.ceil(c_arr / 2.0) - 1.0
    out = np.empty(c_arr.shape, dtype=float)
    for i, (ci, ki) in enumerate(zip(c_arr, thresholds)):
        out[i] = float(stats.hypergeom.sf(ki, n, t, int(ci)))
    return out if np.asarray(c).ndim else float(out[0])


def kl_divergence_bernoulli(a, f) -> np.ndarray | float:
    """D(a ‖ f) between Bernoulli(a) and Bernoulli(f), in nats."""
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    if np.any((f <= 0) | (f >= 1)):
        raise ValueError("f must be in (0, 1)")
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = np.where(a > 0, a * np.log(a / f), 0.0)
        term2 = np.where(a < 1, (1 - a) * np.log((1 - a) / (1 - f)), 0.0)
    result = term1 + term2
    return result if result.ndim else float(result)


def committee_failure_kl_bound(n: int, t: int, c) -> np.ndarray | float:
    """Eq. 3's right side: ``exp(-D(1/2 ‖ f)·c)`` with ``f = t/n + 1/c``."""
    c_arr = np.asarray(c, dtype=float)
    f = np.minimum(t / n + 1.0 / c_arr, 1.0 - 1e-12)
    bound = np.exp(-kl_divergence_bernoulli(0.5, f) * c_arr)
    return bound if c_arr.ndim else float(bound)


def committee_failure_simple_bound(c) -> np.ndarray | float:
    """Eq. 4: ``e^{-c/12}``, valid whenever ``t < n/3`` and ``f < 1/3+1/c``."""
    c_arr = np.asarray(c, dtype=float)
    bound = np.exp(-c_arr / 12.0)
    return bound if c_arr.ndim else float(bound)


def partial_set_failure(lam, malicious_fraction: float = 1.0 / 3.0):
    """§V-C: a partial set is insecure when all λ draws are malicious."""
    lam_arr = np.asarray(lam, dtype=float)
    result = np.power(malicious_fraction, lam_arr)
    return result if lam_arr.ndim else float(result)


def union_bound(per_event, count):
    """Pr[any of ``count`` events] <= count · per_event (clipped at 1)."""
    return np.minimum(np.asarray(per_event, dtype=float) * count, 1.0)


def round_failure_cycledger(m: int, c, lam) -> np.ndarray | float:
    """Table I: ``m · (e^{-c/12} + (1/3)^λ)``."""
    result = union_bound(
        committee_failure_simple_bound(c) + partial_set_failure(lam), m
    )
    return result


def minimum_committee_size(n: int, t: int, target: float) -> int:
    """Smallest c whose exact failure probability is below ``target``
    (used to size committees for a desired security level)."""
    if not (0.0 < target < 1.0):
        raise ValueError("target must be in (0, 1)")
    for c in range(1, n + 1):
        if committee_failure_exact(n, t, c) < target:
            return c
    raise ValueError("no committee size achieves the target")
