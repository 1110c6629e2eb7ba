import copy
import pickle
import random
from fractions import Fraction

import pytest

from edcert import FormalPoly, Mat2, act
from helpers import (
    SWAP,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    nonzero_fraction,
    poly,
    random_dense_mat,
    random_mat,
    random_shaped_mat,
    reference_act,
    scaled,
    shear,
)

rng = random.Random(20240901)


def random_poly(max_degree=6):
    n = rng.randint(0, max_degree)
    return FormalPoly.from_coeffs(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)]
    )


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        Mat2(1, 2, 2, 4)
    with pytest.raises(ValueError):
        Mat2(0, 0, 1, 1)


def test_singular_matrix_test_on_integers_agrees_with_the_determinant():
    # mat clears the entries' denominators into den, and Mat2 compares ad
    # with bc on the integers instead of building the determinant.
    half, third, tiny = Fraction(1, 2), Fraction(1, 3), Fraction(1, 10**30)
    with pytest.raises(ValueError):
        mat(half, third, Fraction(3, 4), half)
    assert mat_det(mat(half, third, Fraction(3, 4), half + tiny)) == tiny / 2
    r = random.Random(2014)
    singular = 0
    for _ in range(2000):
        a, b, c, d = (Fraction(r.randint(-6, 6), r.randint(1, 6)) for _ in range(4))
        if r.random() < 0.5:  # a row proportional to the other, so ad = bc
            k = Fraction(r.randint(-4, 4), r.randint(1, 4))
            c, d = k * a, k * b
        try:
            mat(a, b, c, d)
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == (a * d - b * c == 0), (a, b, c, d)
        singular += rejected
    assert 900 < singular < 1300, singular


def test_cubic_action_example():
    # degree-3 form x^3 + x^2 y - 2 y^3 under the unipotent lower shear
    A = poly(-2, 0, 1, 1)
    B = act(A, Mat2(1, 0, 1, 1))
    assert B == poly(-2, -6, -5, 0)
    assert B.formal_degree == 3
    assert B.actual_degree == 2  # the action can drop the actual degree


def test_identity_and_swap():
    A = random_poly()
    assert act(A, Mat2(1, 0, 0, 1)) == A
    assert act(A, SWAP).coeffs == A.coeffs[::-1]


def test_compose_and_inverse():
    g = Mat2(1, 3, 0, 1)
    assert mat_mul(g, Mat2(1, 0, 0, 1)) == g
    assert mat_mul(SWAP, SWAP) == Mat2(1, 0, 0, 1)
    assert mat_mul(shear(5), shear(-2)) == shear(3)
    assert mat_inv(Mat2(1, 0, 0, 1)) == Mat2(1, 0, 0, 1)
    assert mat_inv(Mat2(2, 0, 0, 1)) == Mat2(1, 0, 0, 2, 2)
    assert mat_inv(g) == Mat2(1, -3, 0, 1)
    for _ in range(50):
        h = random_mat(rng)
        assert mat_mul(h, mat_inv(h)) == Mat2(1, 0, 0, 1)
        assert mat_det(mat_mul(g, h)) == mat_det(g) * mat_det(h)


def test_right_action_law():
    for _ in range(100):
        A = random_poly()
        g, h = random_mat(rng), random_mat(rng)
        assert act(act(A, g), h) == act(A, mat_mul(g, h))


def test_formal_degree_invariance():
    for _ in range(60):
        A = random_poly()
        g = random_mat(rng)
        assert act(A, g).formal_degree == A.formal_degree


def test_action_matches_the_fraction_composition():
    # The integer kernel against the Fraction shift/scale/reverse composition
    # it replaced: the same str of every coefficient, so certificates keep
    # their bytes.  Zero coefficients, formal degrees above the actual degree,
    # degree 0-24 and entries up to 10^30, in all five matrix shapes.
    rng = random.Random(20261018)
    shapes = ["full", "upper", "lower", "upper_swap", "lower_swap"]
    seen = set()
    for k in range(3000):
        # Tall entries only at low degree, where the Fraction side stays cheap.
        n, bound = rng.choice(
            ((rng.randint(0, 8), 9), (rng.randint(0, 8), 9), (rng.randint(0, 24), 9),
             (rng.randint(0, 8), 10**6), (rng.randint(0, 4), 10**30))
        )
        coeffs = [
            0 if rng.random() < 0.2 else Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            for _ in range(n + 1)
        ]
        pad = rng.choice((0, 0, 0, 1, 3))
        A = FormalPoly.from_coeffs(coeffs + [0] * pad)
        shape = shapes[k % 5]
        if shape == "full":
            g = random_dense_mat(rng, bound)
        else:
            g = random_shaped_mat(rng, shape, bound)
        seen.add(tuple(i for i, x in enumerate(g.entries()) if x == 0))
        assert [str(c) for c in act(A, g).coeffs] == [str(c) for c in reference_act(A, g).coeffs]
    # the zero entries of full, upper (c), lower (b), upper-swap (d), lower-swap (a)
    assert seen == {(), (2,), (1,), (3,), (0,)}


def test_triangular_branch_matches_the_fraction_composition():
    # The c = 0 branch of the kernel (scale, integer synthetic division,
    # scale) against the Fraction factorization, on 540 seeded
    # upper-triangular matrices with rational entries and a != d, degrees
    # 1-30: b = 0 (no shift) in a tenth of them, interior zeros, and formal
    # degrees above the actual degree.  U(A), taylor_shift and every shear
    # take this branch.
    rng = random.Random(30301)
    for k in range(540):
        n = rng.randint(1, 30)
        coeffs = [0 if rng.random() < 0.2 else nonzero_fraction(rng) for _ in range(n + 1)]
        A = FormalPoly.from_coeffs(coeffs + [0] * rng.choice((0, 0, 0, 2)))
        a = nonzero_fraction(rng)
        d = a
        while d == a:
            d = nonzero_fraction(rng)
        b = 0 if k % 10 == 0 else nonzero_fraction(rng, rng.choice((9, 10**6)))
        g = mat(a, b, 0, d)
        assert act(A, g) == reference_act(A, g), (A, g)


def test_action_matches_elementary_transforms():
    # act and taylor_shift run the same kernel, so the shear line only checks
    # that they agree; test_taylor_shift_matches_binomial_expansion and the
    # evaluation test below check the kernel itself.
    for _ in range(60):
        A = random_poly()
        n = A.formal_degree
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        u = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert act(A, shear(t)) == A.taylor_shift(t)
        assert act(A, mat(t, 0, 0, 1)).coeffs == tuple(c * t**i for i, c in enumerate(A.coeffs))
        # scalar matrices scale by u^n; [[1,0],[0,u]] is u^n A(x/u)
        assert act(A, mat(u, 0, 0, u)) == scaled(A, u**n)
        assert act(A, mat(1, 0, 0, u)) == scaled(act(A, mat(1 / u, 0, 0, 1)), u**n)


@pytest.mark.parametrize("shape", ["full", "upper", "lower", "upper_swap", "lower_swap"])
def test_action_matches_substitution_by_evaluation(shape):
    # Independent of FormalPoly's shift/scale/reverse: evaluate both sides of
    # A(x) g = (cx+d)^n A((ax+b)/(cx+d)) at n+2 rationals x with cx+d != 0.
    for _ in range(40):
        A = random_poly(max_degree=12)
        n = A.formal_degree
        g = random_dense_mat(rng) if shape == "full" else random_shaped_mat(rng, shape)
        B = act(A, g)
        a, b, c, d = g.entries()
        xs = set()
        while len(xs) < n + 2:
            x = nonzero_fraction(rng, 20)
            if c * x + d != 0:
                xs.add(x)
        for x in xs:
            y = c * x + d
            assert B.eval(x) == y**n * A.eval((a * x + b) / y)


def test_mat2_stores_one_reduced_integer_form():
    # [[a, b], [c, d]] / den with den > 0 and gcd(a, b, c, d, den) = 1, as
    # FormalPoly stores (den, nums): equal matrices have equal fields.
    half = Mat2(2, 4, 0, 4, 4)
    assert half == Mat2(1, 2, 0, 2, 2) and hash(half) == hash(Mat2(1, 2, 0, 2, 2))
    assert (half.a, half.b, half.c, half.d, half.den) == (1, 2, 0, 2, 2)
    assert half.entries() == (Fraction(1, 2), 1, 0, 1)
    assert half == mat(Fraction(3, 6), Fraction(4, 4), 0, 1) == Mat2(-3, -6, 0, -6, -6)
    negative = Mat2(2, -4, 0, 6, -4)
    assert (negative.a, negative.b, negative.c, negative.d, negative.den) == (-1, 2, 0, -3, 2)
    with pytest.raises(ValueError, match="zero denominator"):
        Mat2(1, 0, 0, 1, 0)
    with pytest.raises(ValueError, match="singular"):
        Mat2(1, 2, 2, 4, 3)
    for twin in (pickle.loads(pickle.dumps(half)), copy.copy(half), copy.deepcopy(half)):
        assert type(twin) is Mat2 and twin == half and twin.den == 2


def test_mat2_integer_entries_give_the_fields_of_fraction_entries():
    # Mat2 reads five integers, bools counted as ints; a Fraction or a float
    # raises TypeError, an integral one too, before any other check.  Callers
    # with rational entries clear them into den (mat here, parse_matrix).
    r = random.Random(2113)
    singular = 0
    for _ in range(600):
        ints = [r.randint(-30, 30) if r.random() < 0.75 else 0 for _ in range(4)]
        den = r.choice((-1, 1)) * r.randint(1, 12)
        with pytest.raises(TypeError):
            Mat2(*(Fraction(x * den, den) for x in ints), den)
        if ints[0] * ints[3] == ints[1] * ints[2]:
            singular += 1
            with pytest.raises(ValueError, match="^matrix is singular$"):
                Mat2(*ints, den)
            continue
        g, h = Mat2(*ints, den), mat(*(Fraction(x, den) for x in ints))
        fields = (g.a, g.b, g.c, g.d, g.den)
        assert fields == (h.a, h.b, h.c, h.d, h.den) and g == h
        assert all(type(x) is int for x in fields) and g.den > 0
        assert g.entries() == tuple(Fraction(x, den) for x in ints)
    assert 50 < singular < 250, singular
    assert Mat2(True, 0, 0, 1) == Mat2(1, 0, 0, 1) == Mat2(True, False, False, True, True)
    for entries in ((1, 0, 0, 1), (True, 0, 0, 1), (1, 2, 2, 4)):
        with pytest.raises(ValueError, match="^zero denominator$"):
            Mat2(*entries, 0)
    for entries in ((2, -4, 1, -2), (True, True, True, True)):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            Mat2(*entries, -3)
    for bad in (Fraction(1, 2), Fraction(2), 0.5, 2.0):
        for k in range(5):
            entries = [1, 0, 0, 1, 1]
            entries[k] = bad
            with pytest.raises(TypeError):
                Mat2(*entries)


def test_integer_formulas_agree_with_the_fraction_entries():
    # The tests' mat_det, mat_mul and mat_inv work on (a, b, c, d, den);
    # entries() is the Fraction view they must agree with.
    r = random.Random(2020)
    for _ in range(300):
        g, h = random_mat(r), random_mat(r)
        a, b, c, d = g.entries()
        e, f, k, m = h.entries()
        assert mat(a, b, c, d) == g
        assert mat_mul(g, h).entries() == (a * e + b * k, a * f + b * m, c * e + d * k, c * f + d * m)
        det = a * d - b * c
        assert mat_det(g) == det
        assert mat_inv(g).entries() == (d / det, -b / det, -c / det, a / det)
