"""PVSS: Shamir + Feldman + SCRAPE dual-code verification."""

import pytest
from reference_impls import feldman_check

from repro.crypto.field import FIELD, GROUP
from repro.crypto.pvss import (
    PVSSDealing,
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
