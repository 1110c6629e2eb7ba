import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from edcert import Factorization, PAdic, Rational, exact_arith, factor, gcd, is_probable_prime
from helpers import reference_factor


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


def _prime_at_or_below(n):
    while not is_probable_prime(n):
        n -= 1
    return n


def _prime_above(n):
    n += 1
    while not is_probable_prime(n):
        n += 1
    return n


PSI_12 = 318665857834031151167461  # strong pseudoprime to the bases 2..37
PSI_13 = 3317044064679887385961981  # strong pseudoprime to the bases 2..41

# Inputs around the early stop of trial division at a cofactor that
# Miller-Rabin proves prime, which it does only below PSI_13.
_PROVEN_PRIME_EDGE_CASES = [
    # a small factor times a prime cofactor just below and just above PSI_13
    6 * _prime_at_or_below(PSI_13 - 1),
    35 * _prime_above(PSI_13),
    4099 * _prime_at_or_below(PSI_13 - 1),
    # squares and cubes of primes above 10^6
    1000033**2,
    1000033**3,
    12 * 1000000007**2,
    (10**9 + 7) ** 3,
    # Carmichael numbers
    561,
    41041,
    825265,
    # the first strong pseudoprimes to 12 and 13 prime bases, times small primes
    2 * PSI_12,
    3 * 5 * PSI_12,
    2 * PSI_13,
    7 * 4093 * PSI_13,
]


@pytest.mark.parametrize("trial_bound", [1, 2, 3, 100, 4095, 4096, 4097, 10**6])
def test_factor_matches_reference(trial_bound):
    # Trial division by sieved prime blocks must leave the same cofactor to
    # the same rho stage as division by every odd number did.
    rng = random.Random(trial_bound)
    below = _prime_at_or_below(max(trial_bound, 2))
    above = _prime_above(trial_bound)
    inputs = [rng.randrange(1, 10 ** rng.randint(1, 40)) for _ in range(12)]
    inputs += [below**2, above**2, below * above, 6 * above**2, below**3 * 1000003]
    # a prime just above (bound + 1)^2: no factor up to the bound, above its square
    inputs.append(_prime_above((trial_bound + 1) ** 2))
    inputs += [1000003 * rng.randrange(1, 10**12) for _ in range(4)]
    inputs += [1000003**2, 999983 * 1000003, -(2**4) * 1000003]
    inputs += _PROVEN_PRIME_EDGE_CASES
    for n in inputs:
        kwargs = dict(trial_bound=trial_bound, rho_budget=20_000)
        assert factor(n, **kwargs) == reference_factor(n, **kwargs), n


class _CountingTable(list):
    """The segment table, counting the ranges factor() reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_factor_stops_at_a_proven_prime_cofactor(monkeypatch):
    # Below PSI_13 a prime cofactor ends trial division after the range that
    # exposed it; at PSI_13 and above the whole table is still walked.
    below, above = 6 * _prime_at_or_below(PSI_13 - 1), 6 * _prime_above(PSI_13)
    for n in (below, above):
        fz = factor(n)
        assert fz == reference_factor(n) and fz.complete and len(fz.factors) == 3
    every = 10**6 // 4096 + 1  # the ranges starting at or below the trial bound 10^6
    for n, ranges in ((below, 1), (above, every), (4099 * below, 2)):
        table = _CountingTable(exact_arith._SEGMENTS)
        monkeypatch.setattr(exact_arith, "_SEGMENTS", table)
        factor(n)
        assert table.reads == ranges, n


def test_factor_matches_reference_when_rho_runs_out():
    a, b = 10**19 + 51, 10**20 + 39
    assert is_probable_prime(a) and is_probable_prime(b)
    for trial_bound in (100, 10**6):
        fz = factor(12 * a * b, trial_bound=trial_bound, rho_budget=50)
        assert fz == reference_factor(12 * a * b, trial_bound=trial_bound, rho_budget=50)
        assert fz.cofactor == a * b and fz.as_dict() == {2: 2, 3: 1}


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
