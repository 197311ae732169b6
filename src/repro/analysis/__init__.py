"""Analytical models behind the paper's evaluation (Tables I & II, Figs 4 & 5).

Everything here is closed-form / vectorized NumPy so benchmark sweeps over
thousands of parameter points are instant, per the HPC guide's
vectorize-the-hot-path advice.  SciPy (the ``analysis`` extra) is needed
only by :func:`committee_failure_exact` and is imported when it is called.
"""

from repro.analysis.security import (
    committee_failure_exact,
    committee_failure_kl_bound,
    committee_failure_simple_bound,
    kl_divergence_bernoulli,
    partial_set_failure,
    round_failure_cycledger,
    union_bound,
    monte_carlo_committee_failure,
)
from repro.analysis.complexity import (
    TABLE2_CLAIMS,
    claimed_exponent,
    table2_rows,
)
from repro.analysis.incentive import g, reward_shares, expected_score
from repro.analysis.invariants import (
    INVARIANTS,
    Invariant,
    InvariantChecker,
    InvariantViolation,
    InvariantViolationError,
)

__all__ = [
    "INVARIANTS",
    "Invariant",
    "InvariantChecker",
    "InvariantViolation",
    "InvariantViolationError",
    "committee_failure_exact",
    "committee_failure_kl_bound",
    "committee_failure_simple_bound",
    "kl_divergence_bernoulli",
    "partial_set_failure",
    "round_failure_cycledger",
    "union_bound",
    "monte_carlo_committee_failure",
    "TABLE2_CLAIMS",
    "claimed_exponent",
    "table2_rows",
    "g",
    "reward_shares",
    "expected_score",
]
