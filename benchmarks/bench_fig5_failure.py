"""Fig. 5 — probability of failure sampling one committee, priced and measured.

``test_fig5_curves`` regenerates the figure's curve (n = 2000, t = 666,
committee size swept) three ways: the exact hypergeometric tail, the KL
Chernoff bound (Eq. 3) and the paper's e^{-c/12} (Eq. 4), and checks the
paper's anchor claims at c = 240 and the m = 20 union bound.

``test_fig5_measured_on_the_simulator`` measures the same prices on the code
that forms committees.  Per seed it builds a ``CycLedger`` and reads round
1's ``CommitteeSpec``s from ``_assign_round()``: the referee and leaders come
from ``rank_select``, the partial sets from ``assign_partial_sets``, the
common members from ``crypto_sort``.  No round runs.  The corrupted set is
the lowest ``F·n`` ids (``retarget_nodes(range(t))``), fixed before the
randomness is known, as the paper's adversary picks it: a role rule that
favours an id range shows as a skewed count.  Gates, per shape, at ``ALPHA``:

* every committee's malicious count against Hypergeom(N′, t′, c_k), where N′
  is the non-referee population and t′ its corrupted nodes, by a KS test on
  the randomized probability integral transform; the referee's count
  against Hypergeom(n, t, |C_R|) the same way.  The m counts of one round
  partition t′, so they are negatively associated: the empirical CDF varies
  less than for independent draws and the KS p-value errs high;
* the number of all-malicious partial sets against its expectation for the
  pool each seed drew from (the nodes that are neither referee nor leader),
  by a two-sided z test whose variance treats the sets as independent; one
  round's sets are drawn without replacement, so |z| errs low.

The measured tail rate is printed beside the mean of
``committee_failure_exact`` (Eq. 3) and the partial-set rate beside
``partial_set_failure`` (f^λ).  At c = 200 (the paper's shape) the tail,
about 1e-9, cannot be measured; the histogram can.

``test_fig5_leader_share`` runs 50 reputation-driven rounds and gates the
direction of §VII-A's leader rule: from round 2 on, the malicious-leader
share is below f and below round 1's uniform lottery.
"""

import functools
import math

import numpy as np
import pytest
from scipy import stats

from conftest import print_table
from repro import CycLedger, ProtocolParams
from repro.analysis.security import (
    committee_failure_exact,
    committee_failure_kl_bound,
    committee_failure_simple_bound,
    partial_set_failure,
    union_bound,
)
from repro.core.pipeline import PRE
from repro.core.protocol import PHASE_CONFIG

N, T = 2000, 666
CS = np.arange(20, 301, 20)

#: Corrupted share of the simulator runs, and every gate's false-alarm rate.
F = 0.3
ALPHA = 0.01
#: (label, n, m, λ, |C_R|, seeds); a committee holds (n - |C_R|) / m on average.
SHAPES = (
    ("c≈12", 264, 20, 3, 24, 300),
    ("c≈32", 264, 8, 2, 8, 300),
    ("c=200", 2200, 10, 40, 200, 60),
)
LEADER_SEEDS, LEADER_ROUNDS = (0, 1, 2), 50


def build_fig5():
    exact = committee_failure_exact(N, T, CS)
    kl = committee_failure_kl_bound(N, T, CS)
    simple = committee_failure_simple_bound(CS)
    return exact, kl, simple


def test_fig5_curves(benchmark):
    exact, kl, simple = benchmark(build_fig5)
    rows = [
        (int(c), f"{e:.3e}", f"{k:.3e}", f"{s:.3e}")
        for c, e, k, s in zip(CS, exact, kl, simple)
    ]
    print_table(
        "Fig. 5: committee sampling failure, n=2000, t=666",
        ["c", "exact tail", "KL bound (Eq.3)", "e^{-c/12} (Eq.4)"],
        rows,
    )
    # The figure's shape: strictly decreasing, exponential envelope.
    assert np.all(np.diff(np.log(exact)) < 0), (
        f"Fig. 5: the exact tail does not fall strictly in c over c = {CS[0]}..{CS[-1]}"
    )
    # The valid KL bound dominates the exact tail everywhere.
    assert np.all(kl >= exact * 0.999), (
        "Fig. 5: Eq. 3's KL bound falls below the exact tail (0.1 % slack) at c = "
        f"{CS[kl < exact * 0.999].tolist()}"
    )
    # Paper anchors (see EXPERIMENTS.md for the 2.1e-9 discussion):
    p240 = float(committee_failure_exact(N, T, 240))
    assert 1e-9 < p240 < 1e-8, (  # exact: 8.5e-9; paper quotes e^{-20} = 2.1e-9
        f"Fig. 5 anchor: the exact tail at c = 240 is {p240:.2e}, want in (1e-9, 1e-8)"
    )
    simple240 = committee_failure_simple_bound(240)
    assert simple240 == pytest.approx(2.06e-9, rel=0.02), (
        f"Fig. 5, Eq. 4: e^(-240/12) reads {simple240:.3e}, want 2.06e-9 ± 2 %"
    )
    union = float(union_bound(p240, 20))
    assert union < 2e-7, (
        f"Fig. 5: the m = 20 union bound at c = 240 is {union:.2e}, want under 2e-7"
    )


def round_one_roles(n, m, lam, referee, seed):
    """Round 1's committees and referee as the library stages them, with the
    lowest ``F·n`` ids corrupted, and the corruption predicate."""
    ledger = CycLedger(
        ProtocolParams(n=n, m=m, lam=lam, referee_size=referee, seed=seed)
    )
    ledger.adversary.retarget_nodes(range(int(F * n)))
    committees, referee_ids, _ = ledger._assign_round()
    return committees, referee_ids, ledger.adversary.is_corrupted


def randomized_pit(x, population, bad, drawn, v):
    """``F(x - 1) + v·P(X = x)``: uniform on [0, 1] exactly when
    ``x ~ Hypergeom(population, bad, drawn)`` and ``v`` is uniform."""
    law = stats.hypergeom(population, bad, drawn)
    return law.cdf(x - 1) + v * law.pmf(x)


@functools.cache
def exact_tail(population, bad, c):
    """``committee_failure_exact``, once per (N′, t′, c): seeds repeat them."""
    return committee_failure_exact(population, bad, c)


def z_score(observed, p):
    """``observed`` successes against independent Bernoulli(``p``) trials.
    The partial sets of one round are drawn without replacement, so they
    are negatively correlated and the true variance is smaller: |z| errs
    low."""
    return (observed - p.sum()) / math.sqrt((p * (1 - p)).sum())


def measure(n, m, lam, referee, seeds):
    """One shape over ``seeds`` seeds: the gates' statistics and the printed
    rates."""
    t = int(F * n)
    counts, referee_counts, partial_hits, partial_p = [], [], 0, []
    for seed in range(seeds):
        committees, referee_ids, corrupted = round_one_roles(
            n, m, lam, referee, seed
        )
        x_referee = sum(map(corrupted, referee_ids))
        population, bad = n - referee, t - x_referee
        bad_leaders = sum(corrupted(spec.leader) for spec in committees)
        for spec in committees:
            x = sum(map(corrupted, spec.members))
            counts.append((x, spec.size, population, bad))
            partial_hits += all(map(corrupted, spec.partial))
        # Each partial set is a uniform λ-subset of the pool left after the
        # referee and leader lotteries.
        pool = stats.hypergeom(population - m, bad - bad_leaders, lam)
        partial_p += [pool.pmf(lam)] * m
        referee_counts.append(x_referee)
    x, c, population, bad = np.array(counts).T
    v = np.random.default_rng(0).random(len(x) + seeds)
    u_committee = randomized_pit(x, population, bad, c, v[:len(x)])
    u_referee = randomized_pit(np.array(referee_counts), n, t, referee, v[len(x):])
    partial_p = np.array(partial_p)
    return dict(
        committees=len(x),
        mean_c=c.mean(),
        ks_committee=stats.kstest(u_committee, "uniform").pvalue,
        ks_referee=stats.kstest(u_referee, "uniform").pvalue,
        tail=np.mean(x >= np.ceil(c / 2)),
        tail_exact=np.mean([exact_tail(*key) for key in zip(population, bad, c)]),
        partial=partial_hits / len(partial_p),
        partial_exact=partial_p.mean(),
        partial_z=z_score(partial_hits, partial_p),
    )


def test_fig5_measured_on_the_simulator(benchmark):
    measured = benchmark.pedantic(
        lambda: [(shape, measure(*shape[1:])) for shape in SHAPES],
        rounds=1, iterations=1,
    )
    print_table(
        f"Fig. 5 measured on the simulator: round 1's roles, lowest {F:.0%} of ids "
        f"corrupted, KS / z at α = {ALPHA}",
        ["shape", "n", "m", "λ", "|C_R|", "committees", "mean c", "KS p",
         "referee KS p", "tail measured", "tail exact", "partial measured",
         "partial exact", f"({F})^λ", "partial z"],
        [
            (label, n, m, lam, referee, r["committees"], f"{r['mean_c']:.1f}",
             f"{r['ks_committee']:.3f}", f"{r['ks_referee']:.3f}",
             f"{r['tail']:.4f}", f"{r['tail_exact']:.2e}", f"{r['partial']:.4f}",
             f"{r['partial_exact']:.2e}", f"{partial_set_failure(lam, F):.2e}",
             f"{r['partial_z']:+.3g}")
            for (label, n, m, lam, referee, _), r in measured
        ],
    )
    z_crit = stats.norm.isf(ALPHA / 2)
    for (label, n, m, lam, referee, seeds), r in measured:
        assert r["ks_committee"] >= ALPHA, (
            f"Fig. 5 at {label} (n = {n}, m = {m}): committee malicious counts "
            f"against Hypergeom(N', t', c_k) read KS p = {r['ks_committee']:.2e} "
            f"over {seeds} seeds, want >= {ALPHA}"
        )
        assert r["ks_referee"] >= ALPHA, (
            f"Fig. 5 at {label}: the referee's malicious count against "
            f"Hypergeom({n}, {int(F * n)}, {referee}) reads KS p = "
            f"{r['ks_referee']:.2e} over {seeds} seeds, want >= {ALPHA}"
        )
        assert abs(r["partial_z"]) < z_crit, (
            f"Fig. 5 at {label} (λ = {lam}): all-malicious partial sets read "
            f"{r['partial']:.4f} against {r['partial_exact']:.4f} exact for the "
            f"pools drawn (z = {r['partial_z']:+.2f}), want |z| < {z_crit:.2f}"
        )


def test_fig5_leader_share():
    """§VII-A picks the m most reputable participants as leaders from round 2
    on; the equivocating corrupted leaders and contrary voters lose
    reputation, so their leader share falls below the uniform lottery's."""
    n, m = 96, 4
    per_round = np.zeros(LEADER_ROUNDS)
    for seed in LEADER_SEEDS:
        ledger = CycLedger(
            ProtocolParams(
                n=n, m=m, lam=3, referee_size=16, seed=seed, tx_per_committee=2
            )
        )
        ledger.adversary.retarget_nodes(range(int(F * n)))
        bad_leaders = []
        ledger.pipeline.add_phase_hook(
            PHASE_CONFIG, PRE, lambda ctx, _: bad_leaders.append(
                sum(ledger.adversary.is_corrupted(s.leader) for s in ctx.committees)
            ),
        )
        ledger.run(LEADER_ROUNDS)
        per_round += bad_leaders
    share = per_round / (m * len(LEADER_SEEDS))
    first, later = share[0], share[1:].mean()
    print(
        f"\nFig. 5 leaders (n = {n}, m = {m}, f = {F}, seeds {LEADER_SEEDS}): "
        f"malicious-leader share {first:.3f} in round 1, {later:.3f} over "
        f"rounds 2-{LEADER_ROUNDS}"
    )
    assert later < F and later < first, (
        f"Fig. 5 leaders: the malicious-leader share over rounds 2-{LEADER_ROUNDS} "
        f"is {later:.3f}, want below f = {F} and below round 1's {first:.3f}"
    )
