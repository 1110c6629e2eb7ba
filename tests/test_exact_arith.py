from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from edcert import Factorization, PAdic, Rational, factor, gcd, is_probable_prime


def test_gcd_examples():
    assert gcd(12, 8) == 4
    assert gcd(0, 7) == 7
    assert gcd(0, -7) == 7
    assert gcd(0, 0) == 0
    assert gcd(205, 4) == 1  # shows up when certifying the 5th cyclotomic


def test_factor_examples():
    assert factor(12).as_dict() == {2: 2, 3: 1}
    assert factor(-9).as_dict() == {3: 2}
    assert factor(205).as_dict() == {5: 1, 41: 1}
    assert factor(1) == Factorization(())
    assert factor(2).as_dict() == {2: 1}


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_large_prime_and_semiprime():
    p = 1000000007
    fz = factor(p)
    assert fz.complete and fz.as_dict() == {p: 1}
    fz = factor(p * p * 6)
    assert fz.complete and fz.as_dict() == {2: 1, 3: 1, p: 2}


def test_factor_incomplete_is_flagged_and_consistent():
    # Two ~40-digit primes: far beyond any reasonable rho budget.
    a = 2425967623052370772757633156976982469681
    b = 5991810554633396517767024967580894321153
    fz = factor(a * b, rho_budget=50)
    assert not fz.complete
    assert fz.product() == a * b


@given(st.integers(min_value=1, max_value=10**9))
def test_factor_roundtrip(n):
    fz = factor(n)
    assert fz.complete
    assert fz.product() == n
    assert all(is_probable_prime(p) for p in fz.primes)


def test_is_probable_prime_spot_checks():
    assert is_probable_prime(2) and is_probable_prime(41)
    assert not is_probable_prime(1) and not is_probable_prime(0)
    assert not is_probable_prime(561)  # Carmichael
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime((2**31 - 1) * (2**61 - 1))


def test_strong_pseudoprime_to_first_twelve_prime_bases_is_rejected():
    # psi_12 fools Miller-Rabin with the bases 2..37; base 41 catches it.
    p, q = 399165290221, 798330580441
    psi12 = 318665857834031151167461
    assert p * q == psi12
    assert not is_probable_prime(psi12)
    with pytest.raises(ValueError):
        PAdic(psi12)
    fz = factor(psi12)
    assert fz.complete and fz.as_dict() == {p: 1, q: 1}


def test_rational_normalization():
    q = Rational(-2, -4)
    assert q.numerator == 1 and q.denominator == 2
    assert Rational(0, 17) == Rational(0, 1)
    assert Rational(6, -4).denominator == 2


rationals = st.fractions(max_denominator=50)


@given(rationals, rationals, rationals)
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(rationals.filter(lambda q: q != 0))
def test_rational_inverse(a):
    assert a * (1 / a) == 1
    assert isinstance(1 / a, Fraction)
