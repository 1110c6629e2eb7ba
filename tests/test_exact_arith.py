import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from edcert import Factorization, PAdic, exact_arith, factor, is_probable_prime
from helpers import PSI, primality_draws, reference_factor, reference_is_probable_prime


def test_factor_examples():
    assert factor(12).factors == ((2, 2), (3, 1))
    assert factor(-9).factors == ((3, 2),)
    assert factor(205).factors == ((5, 1), (41, 1))
    assert factor(1) == Factorization(())
    assert factor(2).factors == ((2, 1),)


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_large_prime_and_semiprime():
    p = 1000000007
    fz = factor(p)
    assert fz.complete and fz.factors == ((p, 1),)
    fz = factor(p * p * 6)
    assert fz.complete and fz.factors == ((2, 1), (3, 1), (p, 2))


def test_factor_incomplete_is_flagged_and_consistent():
    # Two ~40-digit primes: far beyond any reasonable rho budget.
    a = 2425967623052370772757633156976982469681
    b = 5991810554633396517767024967580894321153
    fz = factor(a * b, rho_budget=50)
    assert not fz.complete
    assert fz.cofactor * math.prod(p**e for p, e in fz.factors) == a * b


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


# Products of the primes on both sides of the ends of sieved ranges (4096,
# 8192, 12288 and the range that holds the trial bound 10^6, [999424,
# 1003520)), and of the primes next to the bound itself.
_SEGMENT_EDGE_CASES = [
    4093 * 4099,
    4093**2 * 4099,
    8191 * 8209,
    12281 * 12289,
    999389 * 999431,
    2 * 999431 * 1003517,
    1003517 * 1003543,
    999983,
    1000003,
    999983**2,
    999983 * 1000003,
    1000003**2,
    999983 * 1000003 * 1000033,
    -(2**4) * 1000003,
]


@pytest.mark.parametrize("edge", [1, 2, 3, 100, 4095, 4096, 4097, 10**6])
def test_factor_matches_reference(edge):
    # Trial division by sieved prime blocks must leave the same cofactor to
    # the same rho stage as division by every odd number did.  Each case
    # draws its factors on both sides of one point: the first primes, the
    # end of the first sieved range, and the trial bound.
    rng = random.Random(edge)
    below = _prime_at_or_below(max(edge, 2))
    above = _prime_above(edge)
    inputs = [rng.randrange(1, 10 ** rng.randint(1, 40)) for _ in range(12)]
    inputs += [below**2, above**2, below * above, 6 * above**2, below**3 * 1000003]
    # a prime just above (edge + 1)^2; at the bound, no factor up to it and above its square
    inputs.append(_prime_above((edge + 1) ** 2))
    inputs += [1000003 * rng.randrange(1, 10**12) for _ in range(4)]
    if edge == 10**6:  # the fixed inputs, once: they do not depend on the edge
        inputs += _PROVEN_PRIME_EDGE_CASES + _SEGMENT_EDGE_CASES
    for n in inputs:
        assert factor(n, rho_budget=20_000) == reference_factor(n, rho_budget=20_000), n


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
    fz = factor(12 * a * b, rho_budget=50)
    assert fz == reference_factor(12 * a * b, rho_budget=50)
    assert fz.cofactor == a * b and fz.factors == ((2, 2), (3, 1))


def test_factor_stops_dividing_a_range_at_the_square_root_of_its_gcd():
    # Within a range, trial division runs over g = gcd(n, product of the
    # range's primes) while d^2 <= g, and strips what is left of g as one
    # prime; a cofactor below min(hi, bound + 1)^2 after a range is prime.
    big = 1000003  # a prime above the trial bound
    cases = [
        4093 * big, 4091 * big, 4093 * 4091 * big, 2 * 4093 * big**2,
        4091 * 4093, 4093**2, 4093**3, 3 * 4091**2 * 4093,
        # several primes between 1000 and 4096, which the first range splits
        # over its primes: 2^2 * 3 * 1301 * 1867 is an endpoint value of a
        # mixed-lowdeg input
        29147604, 1021 * 2039 * 4093, 4091 * 4093 * big,
    ]
    # cofactors just below and above 4096^2 and 8192^2, the squares of the
    # ends of the first two ranges, with a factor from the first range
    for square in (4096**2, 8192**2):
        below, above = _prime_at_or_below(square - 1), _prime_above(square)
        cases += [6 * below, 6 * above, 5 * _prime_above(4096) * _prime_above(square // 4096)]
        cases += [below, above, below * above]
    for n in cases:
        assert factor(n) == reference_factor(n), n


def test_factor_strips_no_prime_above_the_trial_bound():
    # The last range, [999424, 1003520), holds primes above the bound 10^6;
    # one stripped there would change the cofactor rho starts from.
    a, b = 10**19 + 51, 10**20 + 39
    for n in (1003517 * a * b, 1003517 * 1003543, 2 * 1003517 * a):
        fz = factor(n, rho_budget=50)
        assert fz == reference_factor(n, rho_budget=50), n
    assert factor(1003517 * 1003543, rho_budget=50).cofactor == 1003517 * 1003543


def _near_range_ends(rng: random.Random) -> int:
    """At most one prime next to the square of the end of one of the first
    three sieved ranges, times one or two of: a prime next to the end of one
    of the first eight ranges, a prime power, a small integer.  With one
    large prime, the reference's division by every odd number stays short."""
    n = 1
    if rng.random() < 0.5:
        square = (4096 * rng.randint(1, 3)) ** 2
        n = _prime_at_or_below(square - rng.randint(1, 99)) if rng.random() < 0.5 else _prime_above(square)
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(3)
        if kind == 0:
            end = 4096 * rng.randint(1, 8)
            n *= _prime_at_or_below(end - 1) if rng.random() < 0.5 else _prime_above(end)
        elif kind == 1:
            n *= _prime_above(rng.randrange(2, 9000)) ** rng.randint(1, 3)
        else:
            n *= rng.randrange(1, 10**4)
    return n


def test_factor_matches_reference_on_seeded_draws():
    rng = random.Random(1406)
    for _ in range(2000):
        n = _near_range_ends(rng)
        assert factor(n) == reference_factor(n), n


@given(st.integers(min_value=1, max_value=10**9))
def test_factor_roundtrip(n):
    fz = factor(n)
    assert fz.complete
    assert math.prod(p**e for p, e in fz.factors) == n
    assert all(is_probable_prime(p) for p in fz.primes)


def test_is_probable_prime_spot_checks():
    assert is_probable_prime(2) and is_probable_prime(41)
    assert not is_probable_prime(1) and not is_probable_prime(0)
    assert not is_probable_prime(561)  # Carmichael
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime((2**31 - 1) * (2**61 - 1))


def test_is_probable_prime_takes_an_integer():
    # A float or a Fraction is refused, not read as a number: 7.0 was once
    # called prime.  Bools count as ints.
    for bad in (7.0, 2.0, Fraction(7), 7.5, "7", None):
        with pytest.raises(TypeError):
            is_probable_prime(bad)
    assert not is_probable_prime(True) and not is_probable_prime(False)


def test_strong_pseudoprime_to_first_twelve_prime_bases_is_rejected():
    # psi_12 fools Miller-Rabin with the bases 2..37; base 41 catches it.
    p, q = 399165290221, 798330580441
    psi12 = 318665857834031151167461
    assert p * q == psi12
    assert not is_probable_prime(psi12)
    with pytest.raises(ValueError):
        PAdic(psi12)
    fz = factor(psi12)
    assert fz.complete and fz.factors == ((p, 1), (q, 1))


def test_strong_pseudoprime_to_all_thirteen_prime_bases_is_rejected():
    # psi_13 fools Miller-Rabin with the bases 2..41; the strong Lucas test
    # that completes BPSW catches it.
    p, q = 1287836182261, 2575672364521
    psi13 = 3317044064679887385961981
    assert p * q == psi13 == exact_arith._MR_PROVEN_BELOW
    assert not is_probable_prime(psi13)
    assert all(is_probable_prime(2**k - 1) for k in (89, 107, 127))
    fz = factor(2 * psi13)
    assert fz.complete and fz.factors == ((2, 1), (p, 1), (q, 1))


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the strong probable-prime test to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**j, n) == n - 1 for j in range(1, r))


def test_every_psi_k_is_refused():
    # psi_k passes the first k prime bases, so a graded test that ran only k
    # bases at psi_k, one band looser than the table, would take it for a prime.
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for k, psi in enumerate(PSI, 1):
        assert all(_strong_probable_prime(psi, a) for a in bases[:k]), k
        assert not is_probable_prime(psi), k
        with pytest.raises(ValueError):
            PAdic(psi)


def test_graded_bases_agree_with_all_thirteen():
    # Every n below 10^5, psi_k +- 2, and seeded odd numbers, primes and
    # semiprimes in every band [psi_(k-1), psi_k) and above psi_13.
    for n in itertools.chain(range(10**5), primality_draws()):
        assert is_probable_prime(n) == reference_is_probable_prime(n), n


def test_strong_lucas_test_fails_only_at_its_known_pseudoprimes():
    # The strong Lucas pseudoprimes (Selfridge's parameters) below 26000,
    # OEIS A217255; at every other odd non-square the test is a primality test.
    pseudoprimes = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199}
    for n in range(43, 26000, 2):
        if math.isqrt(n) ** 2 != n:
            prime = all(n % d for d in range(3, math.isqrt(n) + 1, 2))
            assert exact_arith._strong_lucas(n) == (prime or n in pseudoprimes), n


def test_rational_normalization():
    q = Fraction(-2, -4)
    assert q.numerator == 1 and q.denominator == 2
    assert Fraction(0, 17) == Fraction(0, 1)
    assert Fraction(6, -4).denominator == 2


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
