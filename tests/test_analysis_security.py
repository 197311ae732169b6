"""Security math: Eq. 3–4, Fig. 5 anchors, Table I failure column."""

import numpy as np
import pytest

from repro.analysis.security import (
    committee_failure_exact,
    committee_failure_kl_bound,
    committee_failure_simple_bound,
    kl_divergence_bernoulli,
    minimum_committee_size,
    partial_set_failure,
    round_failure_cycledger,
    union_bound,
)
from repro.exp import TABLE1


N, T = 2000, 666  # Fig. 5's population
#: Table I's failure formula per protocol name.
FAIL = {row.name: row.fail_probability for row in TABLE1}


def test_exact_tail_monotone_in_c():
    cs = np.arange(20, 301, 20)
    probs = committee_failure_exact(N, T, cs)
    assert np.all(np.diff(probs) < 0)  # bigger committees, safer


def test_exact_tail_fig5_anchor_order_of_magnitude():
    """Paper: c=240 -> < 2.1e-9.  Our exact weak-majority tail is 8.5e-9 —
    same order; the strict-majority convention gives 3.7e-9 (see
    EXPERIMENTS.md)."""
    p = committee_failure_exact(N, T, 240)
    assert 1e-9 < p < 1e-8


def test_exact_tail_extremes():
    assert committee_failure_exact(10, 10, 4) == pytest.approx(1.0)
    assert committee_failure_exact(10, 0, 4) == pytest.approx(0.0)


def test_kl_divergence_properties():
    assert kl_divergence_bernoulli(0.5, 0.5) == pytest.approx(0.0)
    assert kl_divergence_bernoulli(0.5, 1 / 3) > 0
    with pytest.raises(ValueError):
        kl_divergence_bernoulli(0.5, 0.0)


def test_kl_unit_slip_behind_eq4():
    """Reproduction finding (see EXPERIMENTS.md): the paper's step from
    Eq. 3 to Eq. 4 needs D(1/2 ‖ 1/3) ≥ 1/12, which holds in *bits*
    (0.0850) but not in nats (0.0589) — while the Chernoff bound
    ``exp(-D·c)`` requires nats.  e^{-c/12} is therefore slightly below the
    valid KL bound."""
    d_nats = kl_divergence_bernoulli(0.5, 1 / 3)
    assert d_nats < 1 / 12 < d_nats / np.log(2)


def test_kl_bound_dominates_exact():
    """The (nats) KL Chernoff bound is a genuine upper bound on the tail."""
    cs = np.arange(12, 241, 12)
    exact = committee_failure_exact(N, T, cs)
    bound = committee_failure_kl_bound(N, T, cs)
    assert np.all(bound >= exact * 0.999)


def test_eq4_constant_is_optimistic():
    """Consequence of the unit slip: e^{-c/12} undercuts the exact tail at
    large c (8.5e-9 vs 2.06e-9 at c = 240) — the paper's Fig. 5 anchor
    '2.1e-9' is e^{-240/12}, not the exact hypergeometric tail."""
    cs = np.arange(36, 241, 12)
    kl = committee_failure_kl_bound(N, T, cs)
    simple = committee_failure_simple_bound(cs)
    assert np.all(simple <= kl)  # Eq. 4 is tighter than the valid bound
    assert committee_failure_simple_bound(240) == pytest.approx(2.06e-9, rel=0.01)
    assert committee_failure_exact(N, T, 240) > committee_failure_simple_bound(240)


def test_partial_set_failure_lambda40():
    p = partial_set_failure(40)
    assert p == pytest.approx((1 / 3) ** 40)
    assert p < 8.3e-20  # paper rounds this to "< 8e-20"
    assert union_bound(p, 20) < 2e-18


def test_union_bound_clips():
    assert union_bound(0.3, 10) == 1.0
    assert union_bound(1e-9, 20) == pytest.approx(2e-8)


def test_round_failure_table1_shapes():
    m, c, lam = 16, 100, 40
    cyc = round_failure_cycledger(m, c, lam)
    assert FAIL["CycLedger"](m, c, lam) == cyc
    rapid = FAIL["RapidChain"](m, c, lam)
    elastico = FAIL["Elastico"](m, c, lam)
    # With small committees Elastico's e^{-c/40} is catastrophically larger.
    assert elastico > 100 * cyc
    assert FAIL["OmniLedger"](m, c, lam) == elastico
    # RapidChain's (1/2)^27 floor dominates at large c.
    assert FAIL["RapidChain"](16, 1000, lam) == pytest.approx(0.5**27, rel=0.01)
    # CycLedger at λ=40 adds a negligible partial-set term.
    assert cyc == pytest.approx(rapid - 0.5**27, rel=0.05)


def test_elastico_97_percent_over_6_epochs():
    """§II-A: '16 shards -> 97% failure over only 6 epochs' with c ≈ 100."""
    per_epoch = FAIL["Elastico"](m=16, c=100, lam=0)
    p6 = 1.0 - (1.0 - per_epoch) ** 6
    assert p6 > 0.75  # catastrophic, same shape as the quoted 97%


def test_minimum_committee_size():
    c = minimum_committee_size(N, T, 1e-6)
    assert committee_failure_exact(N, T, c) < 1e-6
    assert committee_failure_exact(N, T, c - 1) >= 1e-6
    with pytest.raises(ValueError):
        minimum_committee_size(N, T, 1.5)


def test_input_validation():
    with pytest.raises(ValueError):
        committee_failure_exact(10, 20, 5)
    with pytest.raises(ValueError):
        committee_failure_exact(10, 5, 0)
