import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edcert import FormalPoly, Mat2, act
from helpers import (
    SWAP,
    _reference_taylor_shift,
    derivative,
    mat,
    nonzero_fraction,
    poly,
    random_mat,
    reference_act,
    scaled,
)

PHI5 = FormalPoly.from_coeffs([1, 1, 1, 1, 1])


def test_construction_and_formal_degree():
    A = poly(9, 0, -14, 0, 1)
    assert A.formal_degree == 4 and A.actual_degree == 4
    B = poly(1, 2, n=5)
    assert B.formal_degree == 5 and B.actual_degree == 1
    assert poly(0, n=3).formal_degree == 3
    assert poly(0, n=3).actual_degree == -1
    # from_coeffs builds at the coefficients' own formal degree (a larger one
    # is zero padding) from ints and Fractions; the (den, nums) form is integers
    with pytest.raises(TypeError):
        FormalPoly.from_coeffs([1, 2, 3], formal_degree=1)
    for bad in ([1, 0.5], [2.0]):
        with pytest.raises(TypeError):
            FormalPoly.from_coeffs(bad)
    with pytest.raises(TypeError):
        FormalPoly(1, (Fraction(1, 2), 1))
    with pytest.raises(ValueError):
        FormalPoly(1, ())
    with pytest.raises(ValueError):
        FormalPoly(0, (1,))
    # the stored form is canonical, so equal polynomials have equal fields
    half = Fraction(1, 2)
    assert FormalPoly(-4, (2, 6, 0)) == FormalPoly(2, (-1, -3, 0)) == poly(-half, -3 * half, 0)
    assert FormalPoly(-4, (2, 6, 0)).nums == (-1, -3, 0)
    assert FormalPoly(5, (0, 0)) == poly(0, n=1) and poly(0, n=1).den == 1


def test_mul():
    assert poly(2, 1) * poly(4, 1) == poly(8, 6, 1)  # (x+2)(x+4), by hand
    A = poly(5, 0, 3)
    assert A * poly(1) == A
    assert (A * poly(0, n=2)) == poly(0, n=4)
    # formal degrees add even when the product is zero
    assert (poly(0, n=2) * poly(0, n=3)).formal_degree == 5


def test_eval():
    assert poly(8, 4, 1).eval(0) == 8
    assert PHI5.eval(1) == 5
    # independent power-sum computation: sum_{i<5} (-1/4)^i == 205/256
    t = Fraction(-1, 4)
    expected = sum(t**i for i in range(5))
    assert expected == Fraction(205, 256)
    assert PHI5.eval(t) == expected


def test_derivative():
    # the tests' A', which the family tests and the product rule below read
    assert derivative(poly(8, 4, 1)) == poly(4, 2)
    assert derivative(poly(7)) == poly(0)
    assert derivative(poly(9, 0, -14, 0, 1)) == poly(0, -28, 0, 4)
    assert derivative(poly(1, 1)).formal_degree == 0


def test_taylor_shift():
    assert poly(0, 0, 1).taylor_shift(1) == poly(1, 2, 1)
    assert poly(8, 4, 1).taylor_shift(-2) == poly(4, 0, 1)
    shifted = PHI5.taylor_shift(Fraction(-1, 4))
    assert shifted.coeffs[0] == Fraction(205, 256)
    assert shifted.coeffs[-1] == 1
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
    assert act(poly(-2, 0, 1, 1), SWAP) == poly(1, 1, 0, -2)
    assert act(poly(8, 4, 1), SWAP) == poly(1, 4, 8)
    A = poly(3, 0, 0, n=4)
    assert act(act(A, SWAP), SWAP) == A
    assert act(A, SWAP).formal_degree == 4


def test_scalings():
    # A(t x) is act(A, [[t, 0], [0, 1]]), which t = 0 makes singular
    assert act(poly(1, 0, 1), Mat2(2, 0, 0, 1)) == poly(1, 0, 4)
    assert scaled(poly(1, 0, 1), 3) == poly(3, 0, 3)
    A = poly(2, -1, 5)
    assert act(A, Mat2(1, 0, 0, 1)) == A
    with pytest.raises(ValueError, match="singular"):
        act(A, Mat2(0, 0, 0, 1))


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
            (derivative(A), [i * c for i, c in enumerate(a)][1:] or [0]),
            (act(A, SWAP), a[::-1]),
            (A.mul(B), product),
            (act(A, mat(t, 0, 0, 1)), [c * t**i for i, c in enumerate(a)]),
            (scaled(A, t), [c * t for c in a]),
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
    A = FormalPoly.from_coeffs(coeffs + [0, 0])
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
    lhs = derivative(A * B)
    terms = (derivative(A) * B).coeffs, (A * derivative(B)).coeffs
    rhs = [x + y for x, y in itertools.zip_longest(*terms, fillvalue=0)]
    # around constants the formal degrees differ by one; pad before comparing
    m = max(lhs.formal_degree, len(rhs) - 1)
    assert poly(*lhs.coeffs, n=m) == poly(*rhs, n=m)
