"""Prime field, Miller-Rabin and the Schnorr group."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference_impls import fermat_inv, pow_commit

from repro.crypto.field import FIELD, GROUP, PrimeField, _find_group, is_prime

#: the share field and two small fields whose byte widths (1 and 3) differ
#: from its 8
FIELDS = (FIELD, PrimeField(101), PrimeField(65537))
GROUPS = (GROUP, _find_group(101), _find_group(65537))
P = FIELD.p


def test_known_primes():
    for p in (2, 3, 5, 7, 97, 2**61 - 1):
        assert is_prime(p)


def test_known_composites():
    for n in (0, 1, 4, 91, 561, 2**61 + 1, 341550071728321):
        assert not is_prime(n)


def test_carmichael_numbers_rejected():
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n)


def test_field_prime_valid():
    assert is_prime(FIELD.p)


def test_non_prime_field_raises():
    with pytest.raises(ValueError):
        PrimeField(100)


def test_add_sub_mul_inverse():
    f = PrimeField(101)
    assert f.add(100, 5) == 4
    assert f.add(3, -10) == 94  # subtraction is the add of a negative
    assert f.mul(50, 4) == 99
    assert f.mul(7, f.inv(7)) == 1


def test_inv_zero_raises():
    for zero in (0, FIELD.p, -FIELD.p):
        with pytest.raises(ZeroDivisionError):
            FIELD.inv(zero)


@given(st.integers(-(2**70), 2**70))
@example(1)
@example(-1)
@example(P - 1)
@example(P + 1)
@example(-P - 1)
@example(2**64)
def test_inverse_is_fermats(a):
    """``inv`` is Fermat's ``a^(p-2)``, for negative inputs and inputs at or
    past ``p`` too, and raises where it does."""
    for field in FIELDS:
        if a % field.p == 0:
            with pytest.raises(ZeroDivisionError):
                field.inv(a)
        else:
            assert field.inv(a) == fermat_inv(a, field.p)


@given(st.integers(-(2**70), 2**70))
@example(0)
@example(1)
@example(P - 1)
@example(P)
@example(P + 1)
@example(-1)
@example(2**64)
def test_commitment_is_one_pow(e):
    """The fixed-base table's product is ``pow(g, e % p, q)`` for every
    exponent, in every group."""
    for group in GROUPS:
        assert group.commit(e) == pow_commit(group, e)


def test_poly_eval_horner():
    f = PrimeField(97)
    coeffs = [3, 0, 2]  # 3 + 2x^2
    assert f.poly_eval(coeffs, 5) == (3 + 2 * 25) % 97


def test_random_poly_constant_term(rng):
    coeffs = FIELD.random_poly(4, 42, rng)
    assert coeffs[0] == 42
    assert len(coeffs) == 5
    assert all(0 <= c < FIELD.p for c in coeffs)


def test_lagrange_interpolation_at_zero(rng):
    coeffs = FIELD.random_poly(3, 777, rng)
    points = [(x, FIELD.poly_eval(coeffs, x)) for x in (1, 5, 9, 12)]
    assert FIELD.interpolate_at_zero(points) == 777


def test_interpolation_duplicate_x_raises():
    with pytest.raises(ValueError):
        FIELD.interpolate_at_zero([(1, 2), (1, 3)])


def test_group_order():
    assert (GROUP.q - 1) % GROUP.p == 0
    assert pow(GROUP.g, GROUP.p, GROUP.q) == 1
    assert GROUP.g != 1


def test_group_commit_homomorphism(rng):
    a = int(rng.integers(1, FIELD.p))
    b = int(rng.integers(1, FIELD.p))
    lhs = GROUP.mul(GROUP.commit(a), GROUP.commit(b))
    rhs = GROUP.commit((a + b) % FIELD.p)
    assert lhs == rhs


def test_group_modulus_prime():
    assert is_prime(GROUP.q)
