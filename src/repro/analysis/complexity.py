"""Table II: claimed per-phase complexity classes, as machine-checkable data.

Each claim maps a ``(phase, role)`` cell to the *exponent vector* of the
claimed complexity in the basis ``(n, m, c)`` — e.g. O(c²) is ``(0, 0, 2)``
and O(mn) is ``(1, 1, 0)``.  The complexity benchmark measures counters at
several network sizes, fits an empirical exponent in the swept variable, and
compares against the claim evaluated in that variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.counters import Roles


@dataclass(frozen=True)
class ComplexityClaim:
    """O(n^a · m^b · c^d) for communication, and the same for storage."""

    phase: str
    role: str
    comm: tuple[float, float, float] | None  # None = "-" in the table
    storage: tuple[float, float, float] | None


#: Table II, row by row.  Basis order: (n, m, c); n = m·c.
TABLE2_CLAIMS: list[ComplexityClaim] = [
    ComplexityClaim("config", Roles.COMMON, (0, 0, 1), (0, 0, 1)),
    ComplexityClaim("config", Roles.KEY, (0, 0, 2), (0, 0, 2)),
    ComplexityClaim("config", Roles.REFEREE, None, None),
    ComplexityClaim("semicommit", Roles.COMMON, None, None),
    ComplexityClaim("semicommit", Roles.KEY, (0, 0, 1), (0, 1, 0)),
    ComplexityClaim("semicommit", Roles.REFEREE, (0, 2, 0), (0, 1, 0)),
    ComplexityClaim("intra", Roles.COMMON, (0, 0, 1), (0, 0, 0)),
    ComplexityClaim("intra", Roles.KEY, (0, 0, 1), (0, 0, 1)),
    ComplexityClaim("intra", Roles.REFEREE, (1, 0, 0), (1, 0, 0)),
    ComplexityClaim("inter", Roles.COMMON, (0, 1, 0), (0, 0, 0)),
    ComplexityClaim("inter", Roles.KEY, (1, 0, 0), (0, 0, 0)),
    ComplexityClaim("inter", Roles.REFEREE, (1, 0, 0), (1, 0, 0)),
    ComplexityClaim("reputation", Roles.COMMON, (0, 0, 1), (0, 0, 0)),
    ComplexityClaim("reputation", Roles.KEY, (0, 0, 1), (0, 0, 1)),
    ComplexityClaim("reputation", Roles.REFEREE, (1, 0, 0), (1, 0, 0)),
    ComplexityClaim("selection", Roles.REFEREE, (1, 0, 0), (1, 0, 0)),
    ComplexityClaim("block", Roles.COMMON, (0, 1, 0), (0, 0, 1)),
    ComplexityClaim("block", Roles.KEY, (1, 0, 0), (0, 0, 1)),
    ComplexityClaim("block", Roles.REFEREE, (1, 1, 0), (1, 0, 0)),
]


def claimed_exponent(
    claim: tuple[float, float, float],
    n_values: np.ndarray,
    m_values: np.ndarray,
    c_values: np.ndarray,
    along: str = "n",
) -> float:
    """Effective exponent of the claimed class along a sweep.

    Given the claim O(n^a m^b c^d) and the actual (n, m, c) points of a
    sweep, the predicted counter is ``y = n^a m^b c^d``; fitting log y
    against the log of the swept variable (``along``: "n", "m" or "c")
    gives the exponent an experiment should observe when sweeping that
    configuration family.
    """
    a, b, d = claim
    values = dict(zip("nmc", (
        np.asarray(v, dtype=float) for v in (n_values, m_values, c_values)
    )))
    y = values["n"] ** a * values["m"] ** b * values["c"] ** d
    slope, _ = np.polyfit(np.log(values[along]), np.log(y), 1)
    return float(slope)


def table2_rows() -> list[tuple[str, str, str, str]]:
    """Human-readable Table II (phase, role, comm class, storage class)."""

    def render(claim: tuple[float, float, float] | None) -> str:
        if claim is None:
            return "-"
        names = ("n", "m", "c")
        parts = []
        for name, power in zip(names, claim):
            if power == 0:
                continue
            parts.append(name if power == 1 else f"{name}^{power:g}")
        return "O(" + ("1" if not parts else "·".join(parts)) + ")"

    return [
        (claim.phase, claim.role, render(claim.comm), render(claim.storage))
        for claim in TABLE2_CLAIMS
    ]
