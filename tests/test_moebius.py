import random
from fractions import Fraction

import pytest

from edcert import FormalPoly, Mat2, act
from helpers import (
    nonzero_fraction,
    random_dense_mat,
    random_mat,
    random_shaped_mat,
    reference_act,
)

rng = random.Random(20240901)


def poly(*coeffs, n=None):
    return FormalPoly.from_coeffs(coeffs, formal_degree=n)


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
    # Mat2 compares a_n d_n b_d c_d with b_n c_n a_d d_d (numerators and
    # denominators of the entries) instead of building the determinant.
    half, third, tiny = Fraction(1, 2), Fraction(1, 3), Fraction(1, 10**30)
    with pytest.raises(ValueError):
        Mat2(half, third, Fraction(3, 4), half)
    assert Mat2(half, third, Fraction(3, 4), half + tiny).det == tiny / 2
    r = random.Random(2014)
    singular = 0
    for _ in range(2000):
        a, b, c, d = (Fraction(r.randint(-6, 6), r.randint(1, 6)) for _ in range(4))
        if r.random() < 0.5:  # a row proportional to the other, so ad = bc
            k = Fraction(r.randint(-4, 4), r.randint(1, 4))
            c, d = k * a, k * b
        try:
            Mat2(a, b, c, d)
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
    assert act(A, Mat2.identity()) == A
    assert act(A, Mat2.swap()) == A.reverse()


def test_compose_and_inverse():
    g = Mat2(1, 3, 0, 1)
    assert g.compose(Mat2.identity()) == g
    assert Mat2.swap() @ Mat2.swap() == Mat2.identity()
    assert Mat2.shear(5) @ Mat2.shear(-2) == Mat2.shear(3)
    assert Mat2.identity().inverse() == Mat2.identity()
    assert Mat2(2, 0, 0, 1).inverse() == Mat2(Fraction(1, 2), 0, 0, 1)
    assert g.inverse() == Mat2(1, -3, 0, 1)
    for _ in range(50):
        h = random_mat(rng)
        assert h @ h.inverse() == Mat2.identity()
        assert (g @ h).det == g.det * h.det


def test_right_action_law():
    for _ in range(100):
        A = random_poly()
        g, h = random_mat(rng), random_mat(rng)
        assert act(act(A, g), h) == act(A, g @ h)


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
        A = FormalPoly.from_coeffs(coeffs, formal_degree=n + pad)
        shape = shapes[k % 5]
        if shape == "full":
            g = random_dense_mat(rng, bound)
        else:
            g = random_shaped_mat(rng, shape, bound)
        seen.add(tuple(i for i, x in enumerate(g.entries()) if x == 0))
        assert [str(c) for c in act(A, g).coeffs] == [str(c) for c in reference_act(A, g).coeffs]
    # the zero entries of full, upper (c), lower (b), upper-swap (d), lower-swap (a)
    assert seen == {(), (2,), (1,), (3,), (0,)}


def test_action_matches_elementary_transforms():
    # act and taylor_shift run the same kernel, so the shear line only checks
    # that they agree; test_taylor_shift_matches_binomial_expansion and the
    # evaluation test below check the kernel itself.
    for _ in range(60):
        A = random_poly()
        n = A.formal_degree
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        u = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert act(A, Mat2.shear(t)) == A.taylor_shift(t)
        assert act(A, Mat2(t, 0, 0, 1)) == A.scale_arg(t)
        # scalar matrices scale by u^n; [[1,0],[0,u]] is u^n A(x/u)
        assert act(A, Mat2(u, 0, 0, u)) == A.scale_all(u**n)
        assert act(A, Mat2(1, 0, 0, u)) == A.scale_arg(1 / u).scale_all(u**n)


@pytest.mark.parametrize("shape", ["full", "upper", "lower", "upper_swap", "lower_swap"])
def test_action_matches_substitution_by_evaluation(shape):
    # Independent of FormalPoly's shift/scale/reverse: evaluate both sides of
    # A(x) g = (cx+d)^n A((ax+b)/(cx+d)) at n+2 rationals x with cx+d != 0.
    for _ in range(40):
        A = random_poly(max_degree=12)
        n = A.formal_degree
        g = random_dense_mat(rng) if shape == "full" else random_shaped_mat(rng, shape)
        B = act(A, g)
        xs = set()
        while len(xs) < n + 2:
            x = nonzero_fraction(rng, 20)
            if g.c * x + g.d != 0:
                xs.add(x)
        for x in xs:
            y = g.c * x + g.d
            assert B.eval(x) == y**n * A.eval((g.a * x + g.b) / y)
