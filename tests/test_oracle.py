import random
from fractions import Fraction

import pytest

from edcert import FormalPoly, certify_search
from edcert.oracle import brute_irreducible, primitive_integer_form
from helpers import poly, random_ed_polynomial


def as_primitive(A):
    return FormalPoly.from_coeffs(primitive_integer_form(A))


def check_witness(A, verdict):
    g, h = verdict.witness
    assert g.actual_degree >= 1 and h.actual_degree >= 1
    assert g * h == as_primitive(A)


def test_reducible_quadratic():
    verdict = brute_irreducible(poly(-1, 0, 1))
    assert not verdict.irreducible
    check_witness(poly(-1, 0, 1), verdict)
    factors = sorted(f.coeffs for f in verdict.witness)
    assert factors == [(Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1))]


def test_paper_quartic_is_irreducible():
    assert brute_irreducible(poly(9, 0, -14, 0, 1)).irreducible


def test_footnote_quadratic_is_irreducible():
    assert brute_irreducible(poly(8, 4, 1)).irreducible


def test_degree_one_and_rational_coefficients():
    assert brute_irreducible(poly(3, 7)).irreducible
    # denominators are cleared first: 1/2 x^2 + 8 ~ x^2 + 16
    assert brute_irreducible(poly(8, 0, Fraction(1, 2))).irreducible
    assert not brute_irreducible(poly(Fraction(1, 3), Fraction(2, 3), Fraction(1, 3))).irreducible


def test_power_of_x_factor():
    verdict = brute_irreducible(poly(0, 2, 1))
    assert not verdict.irreducible
    check_witness(poly(0, 2, 1), verdict)


def test_quadratic_times_quadratic():
    A = poly(1, 0, 1) * poly(2, 0, 1)  # no rational roots
    verdict = brute_irreducible(A)
    assert not verdict.irreducible
    check_witness(A, verdict)
    assert {f.actual_degree for f in verdict.witness} == {2}


def test_cubic_times_cubic():
    A = poly(2, 0, 0, 1) * poly(3, 0, 0, 1)
    verdict = brute_irreducible(A)
    assert not verdict.irreducible
    check_witness(A, verdict)
    assert {f.actual_degree for f in verdict.witness} == {3}


def test_quintic_with_quadratic_factor():
    A = poly(1, 1, 1) * poly(-2, 0, 0, 1)
    verdict = brute_irreducible(A)
    assert not verdict.irreducible
    check_witness(A, verdict)


def test_known_irreducibles():
    assert brute_irreducible(poly(1, 1, 1, 1, 1)).irreducible  # 5th cyclotomic
    assert brute_irreducible(poly(-2, 0, 0, 0, 0, 1)).irreducible  # x^5 - 2
    assert brute_irreducible(poly(1, 3, 0, 1)).irreducible
    assert brute_irreducible(poly(1, -1, 0, 0, 0, 0, 1)).irreducible  # x^6 - x + 1


def test_domain_guards():
    with pytest.raises(ValueError):
        brute_irreducible(poly(0, n=2))
    with pytest.raises(ValueError):
        brute_irreducible(poly(1, 2, 0, n=2))  # actual < formal
    with pytest.raises(ValueError):
        brute_irreducible(FormalPoly.from_coeffs([1] * 8))  # degree 7


def test_random_products_always_detected():
    rng = random.Random(6441)
    for _ in range(60):
        da = rng.randint(1, 3)
        db = rng.randint(1, 6 - da)  # min(da, db) <= (da+db)/2 automatically
        ga = [rng.randint(-6, 6) for _ in range(da + 1)]
        gb = [rng.randint(-6, 6) for _ in range(db + 1)]
        while ga[-1] == 0:
            ga[-1] = rng.randint(-6, 6)
        while gb[-1] == 0:
            gb[-1] = rng.randint(-6, 6)
        A = FormalPoly.from_coeffs(ga) * FormalPoly.from_coeffs(gb)
        verdict = brute_irreducible(A)
        assert not verdict.irreducible
        check_witness(A, verdict)


def test_agreement_with_certified_polynomials():
    rng = random.Random(11)
    for _ in range(25):
        A, p = random_ed_polynomial(
            rng, max_degree=6, max_unit=6, max_endpoint_val=2, extra_val=1
        )
        cert = certify_search(A)
        assert cert.irreducible  # stage 1 at worst, at its own prime
        assert brute_irreducible(A).irreducible
