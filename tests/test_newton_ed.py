import math
import random
from fractions import Fraction

import pytest

from edcert import (
    FormalPoly,
    Mat2,
    NewtonPolygon,
    Segment,
    act,
    dumas_concat_holds,
    is_ed,
    newton_polygon,
)
from edcert.certificate import _ed_report
from helpers import (
    SMALL_PRIMES,
    mat,
    padic,
    poly,
    random_ed_polynomial,
    random_int_poly,
    random_p_content_poly,
    rational_val,
    reference_is_ed,
    reference_is_ed_strict,
    scaled,
)


def test_polygon_examples():
    v2 = padic(2)
    np1 = newton_polygon(poly(8, 4, 1), v2)
    assert np1.vertices == ((0, 3), (2, 0))
    assert np1.segments == (Segment(Fraction(-3, 2), 2),)

    np2 = newton_polygon(poly(2, 1), v2)
    assert np2.vertices == ((0, 1), (1, 0))
    assert np2.segments == (Segment(Fraction(-1), 1),)

    # the product of the previous two: slopes concatenate in increasing order
    np3 = newton_polygon(poly(8, 6, 1), v2)
    assert np3.vertices == ((0, 3), (1, 1), (2, 0))
    assert [s.slope for s in np3.segments] == [Fraction(-2), Fraction(-1)]
    assert [s.length for s in np3.segments] == [1, 1]


def test_polygon_zero_rejected():
    with pytest.raises(ValueError):
        newton_polygon(poly(0, n=3), padic(2))


def test_polygon_single_support_point():
    np = newton_polygon(poly(0, 0, 12), padic(2))
    assert np.vertices == ((2, 2),)
    assert np.segments == ()


def test_polygon_ignores_padding_above_actual_degree():
    assert newton_polygon(poly(8, 4, 1, n=5), padic(2)).vertices == ((0, 3), (2, 0))


def test_is_ed_footnote_examples():
    v2 = padic(2)
    assert is_ed(poly(8, 4, 1), v2).verdict

    rep = is_ed(poly(4, 0, 1), v2)
    assert not rep.verdict and not rep.d1 and rep.d1_gcd == 2

    rep = is_ed(poly(8, 0, Fraction(1, 2)), v2)
    assert not rep.verdict and not rep.d1
    assert rep.d1_gcd == 2  # gcd(3 - (-1), 2)


def test_is_ed_d0_and_d2():
    v2 = padic(2)
    rep = is_ed(poly(8, 4, 0, n=2), v2)
    assert not rep.d0 and not rep.verdict and rep.d1_gcd is None
    rep = is_ed(poly(0, 4, 1), v2)
    assert not rep.d0
    # D2 failure: v(a_1) too small against the segment through (0,1), (2,0)
    rep = is_ed(poly(2, 1, 1), v2)
    assert rep.d0 and rep.d1 and not rep.d2 and rep.d2_failing_index == 1


def test_is_ed_strict_examples():
    # the strict-bound reference that the equivalence tests compare is_ed with
    v2 = padic(2)
    assert reference_is_ed_strict(poly(8, 4, 1), v2)  # 2*v(4) = 4 > 3
    assert not reference_is_ed_strict(poly(4, 0, 1), v2)
    # Eisenstein classic: strict bound holds at every interior index
    assert reference_is_ed_strict(poly(2, 2, 2, 1), v2)


def test_classic_eisenstein_is_ed():
    # x^2 - 2 and x^3 + 6x + 3
    assert is_ed(poly(-2, 0, 1), padic(2)).verdict
    assert is_ed(poly(3, 6, 0, 1), padic(3)).verdict
    # but x^2 - 4 is not (gcd(2, 2) = 2)
    assert not is_ed(poly(-4, 0, 1), padic(2)).verdict


def test_dumas_examples():
    v2 = padic(2)
    assert dumas_concat_holds(poly(2, 1), poly(4, 1), v2)
    assert dumas_concat_holds(poly(1, 1), poly(1, 1), v2)


def test_dumas_preconditions():
    v2 = padic(2)
    with pytest.raises(ValueError):
        dumas_concat_holds(poly(0, n=1), poly(1, 1), v2)
    with pytest.raises(ValueError):
        dumas_concat_holds(poly(1, 0, n=1), poly(1, 1), v2)


def test_dumas_random_pairs():
    rng = random.Random(5150)
    for _ in range(300):
        p = rng.choice(SMALL_PRIMES)
        A = random_int_poly(rng)
        B = random_int_poly(rng)
        assert dumas_concat_holds(A, B, padic(p))


def test_is_ed_and_the_checker_match_valuing_every_coefficient():
    # (D2) by divisibility, in is_ed and in the checker's own _ed_report,
    # against the loop that values every coefficient, on 1200 seeded
    # polynomials.  Each interior valuation sits within one of its bound
    # ceil(((n-i) v0 + i vn) / n), or far above it, so (D2) fails at a spread
    # of first indices; interior coefficients are zero with probability 0.15
    # and every coefficient takes either sign.  p runs from 2 to 10^6 + 3, p
    # divides n in about a third of the draws, endpoint valuations reach 2000,
    # and den, a power of p times a unit, shifts every numerator valuation.
    rng = random.Random(4242)
    primes = (2, 3, 5, 7, 13, 1000003)
    failing = set()
    for k in range(1200):
        p = rng.choice(primes)
        n = rng.randint(1, 12)
        if p < 50 and rng.random() < 0.35:
            n = p * rng.randint(1, 3)
        top = 2000 if k % 40 == 0 and p < 50 else 12
        v0, vn = rng.randint(0, top), rng.randint(0, top)
        nums = []
        for i in range(n + 1):
            if 0 < i < n and rng.random() < 0.15:
                nums.append(0)
                continue
            bound = -(-((n - i) * v0 + i * vn) // n)
            vi = v0 if i == 0 else vn if i == n else max(0, bound + rng.choice((-1, -1, 0, 1, 3)))
            nums.append(rng.choice((-1, 1)) * p**vi * rng.randrange(1, 10**rng.choice((1, 6, 20))))
        A = FormalPoly(p ** rng.randint(0, 3) * rng.randint(1, 50), tuple(nums))
        expected = reference_is_ed(A, p)
        assert is_ed(A, padic(p)) == expected, (p, A)
        assert _ed_report(list(A.nums), p) == (
            expected.d0, expected.d1, expected.d2, expected.d1_gcd, expected.d2_failing_index
        ), (p, A)
        failing.add(expected.d2_failing_index)
    assert {None, 1, 2, 3} <= failing


def test_lemma_21_equivalence_random():
    rng = random.Random(2121)
    for _ in range(400):
        p = rng.choice(SMALL_PRIMES)
        A = random_p_content_poly(rng, p)
        assert is_ed(A, padic(p)).verdict == reference_is_ed_strict(A, padic(p))


def test_geometric_characterization():
    # ED <=> polygon is one segment over [0, n] with height drop coprime to n
    rng = random.Random(909)
    for _ in range(400):
        p = rng.choice(SMALL_PRIMES)
        A = random_p_content_poly(rng, p)
        v = padic(p)
        n = A.formal_degree
        geom = False
        if A.coeffs[0] != 0 and A.coeffs[n] != 0:
            np = newton_polygon(A, v)
            geom = (
                np.vertices == ((0, rational_val(v, A.coeffs[0])), (n, rational_val(v, A.coeffs[n])))
                and math.gcd(rational_val(v, A.coeffs[0]) - rational_val(v, A.coeffs[n]), n) == 1
            )
        assert is_ed(A, v).verdict == geom


def test_verdict_invariance_under_symmetries():
    rng = random.Random(1212)
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        v = padic(p)
        A = random_p_content_poly(rng, p)
        verdict = is_ed(A, v).verdict
        t = Fraction(0)
        while t == 0:
            t = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        assert is_ed(scaled(A, t), v).verdict == verdict
        assert is_ed(act(A, mat(t, 0, 0, 1)), v).verdict == verdict
        assert is_ed(act(A, Mat2(0, 1, 1, 0)), v).verdict == verdict


def test_shift_stability():
    # shifting by t with n v(t) > v(a_0) - v(a_n) preserves the property
    rng = random.Random(3434)
    for _ in range(200):
        A, p = random_ed_polynomial(rng)
        v = padic(p)
        n = A.formal_degree
        drop = rational_val(v, A.coeffs[0]) - rational_val(v, A.coeffs[n])
        k = math.floor(Fraction(drop, n)) + 1
        num = rng.choice([x for x in range(-9, 10) if x and x % p])
        den = rng.choice([x for x in range(1, 10) if x % p])
        t = Fraction(p) ** k * Fraction(num, den)
        assert n * rational_val(v, t) > drop
        assert is_ed(A.taylor_shift(t), v).verdict


def test_subleading_coefficient_bound():
    # for ED polynomials with p coprime to n: n v(a_{n-1}/(n a_n)) > v(a_0) - v(a_n)
    rng = random.Random(5656)
    for _ in range(200):
        A, p = random_ed_polynomial(rng, prime_coprime_to_degree=True)
        v = padic(p)
        n = A.formal_degree
        drop = rational_val(v, A.coeffs[0]) - rational_val(v, A.coeffs[n])
        sub = A.coeffs[n - 1]
        if sub == 0:
            continue  # infinity passes
        assert n * rational_val(v, sub / (n * A.coeffs[n])) > drop


def test_generator_output_is_ed():
    rng = random.Random(787878)
    for _ in range(300):
        A, p = random_ed_polynomial(rng)
        v = padic(p)
        rep = is_ed(A, v)
        assert rep.verdict, (A, p)
        # no interior index can sit exactly on the segment once (D1) holds
        n = A.formal_degree
        v0, vn = rational_val(v, A.coeffs[0]), rational_val(v, A.coeffs[n])
        for i in range(1, n):
            if A.coeffs[i] != 0:
                assert n * rational_val(v, A.coeffs[i]) != (n - i) * v0 + i * vn
