"""Shared interface of the Table I protocol models."""

from __future__ import annotations

import numpy as np


def as_float(value):
    """Scalar-in/scalar-out, array-in/array-out normalization.

    The quantitative Table I rows are numpy expressions, so the same model
    method serves both the single-configuration table (floats) and the
    vectorized n-grid scaling curves (arrays) without per-point loops.
    """
    arr = np.asarray(value, dtype=float)
    return arr if arr.ndim else float(arr)


class ProtocolModel:
    """Analytical profile of one sharding protocol (one Table I column).

    The quantitative methods accept scalars or numpy arrays for ``n``/``c``
    and return a matching float or array (see :func:`as_float`)."""

    name: str = "abstract"
    #: Max tolerated malicious fraction (Table I "Resiliency" row).
    resiliency: float = 0.0
    #: "Decentralization" row.
    decentralization: str = ""
    #: "High Efficiency w.r.t Dishonest Leaders" row (qualitative; the
    #: measured ratio is ``repro.exp.policies_artifact``'s).
    leader_robust: bool = False
    #: Executable backend registry name, ``None`` when analytic only.
    backend: str | None = None
    #: "Incentives" row.
    has_incentives: bool = False
    #: "Burden on Connection" row.
    connection_burden: str = "heavy"

    # -- quantitative rows ---------------------------------------------------
    def complexity_messages(self, n: int, m: int, c: int) -> float:
        """Per-node communication/computation class, evaluated numerically
        ("Complexity" row; all four protocols are O(n) there)."""
        raise NotImplementedError

    def storage(self, n: int, m: int, c: int) -> float:
        """Per-node storage class, evaluated numerically ("Storage" row)."""
        raise NotImplementedError

    def fail_probability(self, m: int, c: int, lam: int) -> float:
        """Per-round failure probability ("Fail Probability" row)."""
        raise NotImplementedError

    def connection_channels(
        self, n: int, m: int, c: int, lam: int, cr: int
    ) -> int:
        """Reliable channels required (quantifying the "Burden" row).

        Default: prior protocols assume "a good connection between any pair
        of truthful nodes" — a full clique over the ~2/3 honest nodes.
        """
        honest = int(n * (1 - self.resiliency))
        return honest * (honest - 1) // 2

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
