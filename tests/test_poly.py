import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edcert import FormalPoly, act
from helpers import _reference_taylor_shift, nonzero_fraction, random_mat, reference_act

PHI5 = FormalPoly.from_coeffs([1, 1, 1, 1, 1])


def poly(*coeffs, n=None):
    return FormalPoly.from_coeffs(coeffs, formal_degree=n)


def test_construction_and_formal_degree():
    A = poly(9, 0, -14, 0, 1)
    assert A.formal_degree == 4 and A.actual_degree == 4
    B = poly(1, 2, n=5)
    assert B.formal_degree == 5 and B.actual_degree == 1
    assert FormalPoly.zero(3).formal_degree == 3
    assert FormalPoly.zero(3).actual_degree == -1
    with pytest.raises(ValueError):
        FormalPoly.from_coeffs([1, 2, 3], formal_degree=1)
    with pytest.raises(ValueError):
        FormalPoly(1, ())
    with pytest.raises(ValueError):
        FormalPoly(0, (1,))
    # the stored form is canonical, so equal polynomials have equal fields
    half = Fraction(1, 2)
    assert FormalPoly(-4, (2, 6, 0)) == FormalPoly(2, (-1, -3, 0)) == poly(-half, -3 * half, 0)
    assert FormalPoly(-4, (2, 6, 0)).nums == (-1, -3, 0)
    assert FormalPoly(5, (0, 0)) == FormalPoly.zero(1) and FormalPoly.zero(1).den == 1


def test_mul():
    assert poly(2, 1) * poly(4, 1) == poly(8, 6, 1)  # (x+2)(x+4), by hand
    A = poly(5, 0, 3)
    assert A * poly(1) == A
    assert (A * FormalPoly.zero(2)) == FormalPoly.zero(4)
    # formal degrees add even when the product is zero
    assert (FormalPoly.zero(2) * FormalPoly.zero(3)).formal_degree == 5


def test_eval():
    assert poly(8, 4, 1).eval(0) == 8
    assert PHI5.eval(1) == 5
    # independent power-sum computation: sum_{i<5} (-1/4)^i == 205/256
    t = Fraction(-1, 4)
    expected = sum(t**i for i in range(5))
    assert expected == Fraction(205, 256)
    assert PHI5.eval(t) == expected


def test_derivative():
    assert poly(8, 4, 1).derivative() == poly(4, 2)
    assert poly(7).derivative() == FormalPoly.zero(0)
    assert poly(9, 0, -14, 0, 1).derivative() == poly(0, -28, 0, 4)
    assert poly(1, 1).derivative().formal_degree == 0


def test_taylor_shift():
    assert poly(0, 0, 1).taylor_shift(1) == poly(1, 2, 1)
    assert poly(8, 4, 1).taylor_shift(-2) == poly(4, 0, 1)
    shifted = PHI5.taylor_shift(Fraction(-1, 4))
    assert shifted.constant == Fraction(205, 256)
    assert shifted.leading == 1
    assert shifted.formal_degree == 4


def test_taylor_shift_matches_binomial_expansion():
    # oracle: expand sum a_k (x+t)^k by repeated multiplication
    rng = random.Random(7)
    x_plus_t = lambda t: poly(t, 1)
    for _ in range(25):
        n = rng.randint(0, 6)
        A = FormalPoly.from_coeffs([rng.randint(-9, 9) for _ in range(n + 1)])
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        expected = [Fraction(0)] * (n + 1)
        power = poly(1, n=0)
        for k in range(n + 1):
            for i, c in enumerate(power.coeffs):
                expected[i] += A.coeffs[k] * c
            power = power * x_plus_t(t)
        assert A.taylor_shift(t) == FormalPoly.from_coeffs(expected)


def test_reverse():
    assert poly(-2, 0, 1, 1).reverse() == poly(1, 1, 0, -2)
    assert poly(8, 4, 1).reverse() == poly(1, 4, 8)
    A = poly(3, 0, 0, n=4)
    assert A.reverse().reverse() == A
    assert A.reverse().formal_degree == 4


def test_scalings():
    assert poly(1, 0, 1).scale_arg(2) == poly(1, 0, 4)
    assert poly(1, 0, 1).scale_all(3) == poly(3, 0, 3)
    A = poly(2, -1, 5)
    assert A.scale_arg(1) == A
    with pytest.raises(ValueError):
        A.scale_arg(0)
    with pytest.raises(ValueError):
        A.scale_all(Fraction(0))


def test_every_kernel_returns_the_canonical_form():
    # Each result has den > 0 and gcd(den, *nums) == 1, and its coeffs equal
    # the same operation done on Fractions.
    rng = random.Random(1109)

    def fractions(n):
        return [nonzero_fraction(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(n + 1)]

    for _ in range(300):
        a, b = fractions(rng.randint(0, 6)), fractions(rng.randint(0, 6))
        A, B = FormalPoly.from_coeffs(a), FormalPoly.from_coeffs(b)
        t, g = nonzero_fraction(rng), random_mat(rng)
        product = [0] * (len(a) + len(b) - 1)
        for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
            product[i + j] += x * y
        cases = [
            (act(A, g), reference_act(A, g).coeffs),
            (A.taylor_shift(t), _reference_taylor_shift(A, t).coeffs),
            (A.derivative(), [i * c for i, c in enumerate(a)][1:] or [0]),
            (A.reverse(), a[::-1]),
            (A.mul(B), product),
            (A.scale_arg(t), [c * t**i for i, c in enumerate(a)]),
            (A.scale_all(t), [c * t for c in a]),
        ]
        for R, expected in cases:
            assert R.den > 0 and math.gcd(R.den, *R.nums) == 1, R
            assert R.coeffs == tuple(expected), (A, B, t, g)


small_coeffs = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=8), min_size=1, max_size=7
)
small_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


@settings(max_examples=60)
@given(small_coeffs, small_rationals, small_rationals)
def test_shift_additivity(coeffs, s, t):
    A = FormalPoly.from_coeffs(coeffs)
    assert A.taylor_shift(s).taylor_shift(t) == A.taylor_shift(s + t)


@settings(max_examples=100)
@given(small_coeffs, small_rationals)
def test_eval_matches_power_sum(coeffs, t):
    A = FormalPoly.from_coeffs(coeffs, formal_degree=len(coeffs) + 1)
    assert A.eval(t) == sum(c * t**i for i, c in enumerate(coeffs))


@settings(max_examples=60)
@given(small_coeffs, small_rationals, small_rationals)
def test_shift_agrees_with_evaluation(coeffs, t, x):
    A = FormalPoly.from_coeffs(coeffs)
    assert A.taylor_shift(t).eval(x) == A.eval(x + t)


@settings(max_examples=60)
@given(small_coeffs, small_coeffs)
def test_product_rule(ca, cb):
    A, B = FormalPoly.from_coeffs(ca), FormalPoly.from_coeffs(cb)
    lhs = (A * B).derivative()
    terms = (A.derivative() * B).coeffs, (A * B.derivative()).coeffs
    rhs = [x + y for x, y in itertools.zip_longest(*terms, fillvalue=0)]
    # around constants the formal degrees differ by one; pad before comparing
    m = max(lhs.formal_degree, len(rhs) - 1)
    assert FormalPoly.from_coeffs(lhs.coeffs, formal_degree=m) == FormalPoly.from_coeffs(
        rhs, formal_degree=m
    )
