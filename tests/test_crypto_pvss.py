"""PVSS: Shamir + Feldman + SCRAPE dual-code verification."""

from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_impls import feldman_check

from repro.crypto.field import FIELD, GROUP, PrimeField
from repro.crypto.pvss import (
    PVSSDealing,
    _dual_code_word,
    deal,
    reconstruct,
    scrape_check,
    verify_dealing,
    verify_revealed_share,
)


def test_deal_shapes(rng):
    dealing, secrets = deal(123, n=7, threshold=4, rng=rng)
    assert len(dealing.coeff_commitments) == 4
    assert len(dealing.share_commitments) == 7
    assert len(secrets.shares) == 7


def test_threshold_out_of_range(rng):
    with pytest.raises(ValueError):
        deal(1, n=5, threshold=6, rng=rng)
    with pytest.raises(ValueError):
        deal(1, n=5, threshold=0, rng=rng)


def test_feldman_check_accepts_real_shares(rng):
    dealing, secrets = deal(99, n=6, threshold=3, rng=rng)
    for i, share in enumerate(secrets.shares, start=1):
        assert feldman_check(dealing, i, share)


def test_feldman_check_rejects_wrong_share(rng):
    dealing, secrets = deal(99, n=6, threshold=3, rng=rng)
    assert not feldman_check(dealing, 1, secrets.shares[0] + 1)
    assert not feldman_check(dealing, 0, secrets.shares[0])  # bad index


def test_scrape_accepts_honest_dealing(rng):
    dealing, _ = deal(5, n=10, threshold=6, rng=rng)
    assert scrape_check(dealing, rng)


def test_scrape_rejects_corrupted_share_commitment(rng):
    dealing, _ = deal(5, n=10, threshold=6, rng=rng)
    bad = list(dealing.share_commitments)
    bad[4] = GROUP.mul(bad[4], GROUP.g)
    corrupted = PVSSDealing(
        n=10,
        threshold=6,
        coeff_commitments=dealing.coeff_commitments,
        share_commitments=tuple(bad),
    )
    assert not verify_dealing(corrupted, rng)


def test_scrape_rejects_swapped_polynomial(rng):
    """Share vector from a different polynomial than committed."""
    dealing_a, _ = deal(1, n=8, threshold=4, rng=rng)
    dealing_b, _ = deal(2, n=8, threshold=4, rng=rng)
    frankenstein = PVSSDealing(
        n=8,
        threshold=4,
        coeff_commitments=dealing_a.coeff_commitments,
        share_commitments=dealing_b.share_commitments,
    )
    assert not verify_dealing(frankenstein, rng)


def test_reconstruct_from_any_threshold_subset(rng):
    secret = 424242
    dealing, secrets = deal(secret, n=9, threshold=5, rng=rng)
    points = list(enumerate(secrets.shares, start=1))
    assert reconstruct(points[:5], 5) == secret
    assert reconstruct(points[4:], 5) == secret
    assert reconstruct([points[0], points[2], points[4], points[6], points[8]], 5) == secret


def test_reconstruct_below_threshold_raises(rng):
    dealing, secrets = deal(7, n=5, threshold=4, rng=rng)
    with pytest.raises(ValueError):
        reconstruct(list(enumerate(secrets.shares, 1))[:3], 4)


def test_below_threshold_subset_learns_nothing(rng):
    """t-1 shares interpolate to a wrong value (perfect secrecy proxy)."""
    secret = 31337
    _, secrets = deal(secret, n=6, threshold=4, rng=rng)
    points = list(enumerate(secrets.shares, 1))[:3]
    # Interpolating a lower-degree polynomial through too few points
    wrong = FIELD.interpolate_at_zero(points)
    assert wrong != secret  # holds except w.p. 1/p


def test_verify_revealed_share(rng):
    dealing, secrets = deal(8, n=5, threshold=3, rng=rng)
    assert verify_revealed_share(dealing, 2, secrets.shares[1])
    assert not verify_revealed_share(dealing, 2, secrets.shares[0])
    assert not verify_revealed_share(dealing, 99, secrets.shares[0])


def test_full_threshold_dealing(rng):
    """n == threshold: dual code is trivial; per-share checks kick in."""
    dealing, secrets = deal(77, n=4, threshold=4, rng=rng)
    assert verify_dealing(dealing, rng)
    assert reconstruct(list(enumerate(secrets.shares, 1)), 4) == 77


# -- the closed forms are their product loops ---------------------------------
FIELDS = (FIELD, PrimeField(101))


@given(st.data(), st.integers(2, 64), st.sampled_from(FIELDS), st.integers(0, 2**32))
def test_dual_code_word_is_the_product_loop(data, n, field, seed):
    """``(−1)^{n−i}(i−1)!(n−i)!`` is ``∏_{j≠i}(i − j)``, with the same draws."""
    threshold = data.draw(st.integers(1, n - 1))
    word = _dual_code_word(n, threshold, np.random.default_rng(seed), field)
    rng = np.random.default_rng(seed)
    m = field.random_poly(n - threshold - 1, int(rng.integers(1, 1 << 61)), rng)
    assert word == [
        field.poly_eval(m, i) * field.inv(prod(i - j for j in range(1, n + 1) if j != i))
        % field.p
        for i in range(1, n + 1)
    ]


_CONSECUTIVE = st.tuples(
    st.integers(-5, 300) | st.integers(FIELD.p - 70, FIELD.p + 5), st.integers(1, 64)
).map(lambda start_count: list(range(start_count[0], start_count[0] + start_count[1])))


@given(_CONSECUTIVE | st.lists(st.integers(-50, 300), min_size=1, max_size=40, unique=True),
       st.sampled_from(FIELDS))
def test_lagrange_coefficients_are_the_product_loop(xs, field):
    """``L_i(0) = ∏_{j≠i} −x_j / (x_i − x_j)``, for consecutive xs by the
    closed form."""
    if len({x % field.p for x in xs}) < len(xs):
        return  # two points coincide in the field: no interpolation
    others = [[xj for xj in xs if xj != xi] for xi in xs]
    assert field.lagrange_coeffs_at_zero(xs) == [
        prod(-xj for xj in rest) * field.inv(prod(xi - xj for xj in rest)) % field.p
        for xi, rest in zip(xs, others)
    ]
