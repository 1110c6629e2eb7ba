"""Acceptance suite: one test per criterion, each printing a PASS line.

Every randomized criterion runs with a fixed seed and the full stated trial
count; run with -s (or read captured output) to see the per-criterion lines.
"""

import json
import math
import random
import time
from fractions import Fraction

from edcert import (
    FormalPoly,
    Mat2,
    Verdict,
    act,
    candidate_primes,
    certify_search,
    dumas_concat_holds,
    is_ed,
    upper_transform,
)
from edcert.certify import lower_transform, one_param_member
from edcert.cli import certificate_to_json, validate_certificate_json
from edcert.oracle import brute_irreducible
from helpers import (
    SMALL_PRIMES,
    SWAP,
    cyclotomic,
    derivative,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    padic,
    poly,
    random_dense_mat,
    random_ed_polynomial,
    random_int_poly,
    random_mat,
    random_p_content_poly,
    random_shaped_mat,
    rational_val,
    reference_is_ed_strict,
    scaled,
    shear,
)


def test_criterion_01_cubic_action_example():
    A = poly(-2, 0, 1, 1)
    g = Mat2(1, 0, 1, 1)
    expected = poly(-2, -6, -5, 0)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        B = act(A, g)
        best = min(best, time.perf_counter() - t0)
    assert B == expected and B.formal_degree == 3
    assert best < 0.001, f"act took {best * 1e6:.0f} us"
    print(f"ACCEPTANCE 1 PASS: action example exact, {best * 1e6:.0f} us < 1 ms")


def test_criterion_02_footnote_example():
    A = poly(8, 4, 1)
    v2 = padic(2)
    assert is_ed(A, v2).verdict
    _, U = upper_transform(A)
    _, L = lower_transform(A)
    assert U == poly(4, 0, 1)
    assert L == poly(8, 0, Fraction(1, 2))
    repU, repL = is_ed(U, v2), is_ed(L, v2)
    assert not repU.d1 and repU.d1_gcd == 2
    assert not repL.d1 and repL.d1_gcd == 2
    cert = certify_search(A)
    assert cert.irreducible and cert.prime == 2 and cert.stage == 1
    print("ACCEPTANCE 2 PASS: footnote example (ED at v_2; U, L exact; both fail D1 with gcd 2)")


def test_criterion_03_cyclotomic_certification():
    times = []
    for p in (3, 5, 7, 11, 13, 17):
        t0 = time.perf_counter()
        cert = certify_search(cyclotomic(p))
        dt = time.perf_counter() - t0
        times.append(dt)
        assert cert.irreducible and cert.prime == p and cert.stage == 2
        assert cert.transform == shear(Fraction(-1, p - 1))
        shifted = cyclotomic(p).taylor_shift(Fraction(-1, p - 1))
        assert is_ed(shifted, padic(p)).verdict
        assert cert.witness == shifted
        assert dt < 1.0, f"certify(Phi_{p}) took {dt:.2f} s"
    print(
        "ACCEPTANCE 3 PASS: Phi_p certified at p via stage-2 shift -1/(p-1), "
        f"max {max(times) * 1000:.0f} ms < 1 s"
    )


def test_criterion_04_negative_example():
    A = poly(9, 0, -14, 0, 1)
    cp = candidate_primes(A)
    assert cp.primes == {2, 3} and cp.complete
    cert = certify_search(A)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.candidate_primes_complete
    assert brute_irreducible(A).irreducible
    print("ACCEPTANCE 4 PASS: x^4-14x^2+9 inconclusive, candidates {2,3} complete, oracle: irreducible")


def test_criterion_05_dumas_concatenation_1000():
    rng = random.Random(1005)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(1000):
        p = rng.choice(SMALL_PRIMES)
        A = random_int_poly(rng, 1, 6, 50)
        B = random_int_poly(rng, 1, 6, 50)
        if not dumas_concat_holds(A, B, padic(p)):
            failures += 1
    dt = time.perf_counter() - t0
    assert failures == 0
    assert dt < 10.0, f"took {dt:.1f} s"
    print(f"ACCEPTANCE 5 PASS: Dumas concatenation, 1000 pairs, 0 failures, {dt:.1f} s < 10 s")


def test_criterion_06_strict_equivalence_1000():
    rng = random.Random(1006)
    failures = 0
    for _ in range(1000):
        p = rng.choice(SMALL_PRIMES)
        A = random_p_content_poly(rng, p)
        if is_ed(A, padic(p)).verdict != reference_is_ed_strict(A, padic(p)):
            failures += 1
    assert failures == 0
    print(
        "ACCEPTANCE 6 PASS: is_ed and the strict-bound reference give identical verdicts, "
        "1000 trials, 0 failures"
    )


def test_criterion_07_symmetries_and_shift_stability_500_each():
    rng = random.Random(1007)
    for _ in range(500):  # scaling and reversal invariance on ED inputs
        A, p = random_ed_polynomial(rng)
        v = padic(p)
        t = Fraction(0)
        while t == 0:
            t = Fraction(rng.randint(-15, 15), rng.randint(1, 15))
        assert is_ed(scaled(A, t), v).verdict
        assert is_ed(act(A, mat(t, 0, 0, 1)), v).verdict
        assert is_ed(act(A, SWAP), v).verdict
    for _ in range(500):  # Taylor shifts with n v(t) > v(a_0) - v(a_n)
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
    print("ACCEPTANCE 7 PASS: scale/reverse invariance and shift stability, 500 trials each, 0 failures")


def test_criterion_08_subleading_bound_500():
    rng = random.Random(1008)
    for _ in range(500):
        A, p = random_ed_polynomial(rng, prime_coprime_to_degree=True)
        v = padic(p)
        n = A.formal_degree
        drop = rational_val(v, A.coeffs[0]) - rational_val(v, A.coeffs[n])
        sub = A.coeffs[n - 1]
        if sub == 0:
            continue  # valuation infinity passes
        assert n * rational_val(v, sub / (n * A.coeffs[n])) > drop
    print("ACCEPTANCE 8 PASS: n v(a_{n-1}/(n a_n)) > v(a_0) - v(a_n) on 500 ED draws, 0 failures")


def test_criterion_09_triangular_round_trip_500():
    rng = random.Random(1009)
    shapes = ("upper", "lower", "upper_swap", "lower_swap")
    for trial in range(500):
        E, p = random_ed_polynomial(rng, prime_coprime_to_degree=True, max_degree=6)
        g = random_shaped_mat(rng, shapes[trial % 4])
        A = act(E, mat_inv(g))
        v = padic(p)
        ok = False
        if A.coeffs[-1] != 0:
            ok = is_ed(upper_transform(A)[1], v).verdict
        if not ok and A.coeffs[0] != 0:
            ok = is_ed(lower_transform(A)[1], v).verdict
        assert ok, (E, g, p)
    print("ACCEPTANCE 9 PASS: U(A) or L(A) recovers a witness, 500 triangular trials, 0 failures")


def test_criterion_10_one_parameter_round_trip_500():
    rng = random.Random(1010)
    for _ in range(500):
        E, p = random_ed_polynomial(rng, prime_coprime_to_degree=True, max_degree=6)
        g = random_dense_mat(rng)
        A = act(E, mat_inv(g))
        v = padic(p)
        n = A.formal_degree
        a, _, c, _ = g.entries()
        t = a / c  # s/u from the hypothesized witness matrix
        assert A.eval(t) != 0  # forced: the conjugated form keeps degree n
        candidates = []
        if A.coeffs[-1] != 0:
            candidates.append(upper_transform(A)[1])
        if A.coeffs[0] != 0:
            candidates.append(lower_transform(A)[1])
        if derivative(A).eval(t) != 0:
            m, member = one_param_member(A, t)
            assert mat_det(m) == n * A.eval(t) / derivative(A).eval(t)
            candidates.append(member)
        assert any(is_ed(B, v).verdict for B in candidates), (E, g, p)
    print("ACCEPTANCE 10 PASS: U, L, or family member recovers a witness, 500 dense trials, 0 failures")


def test_criterion_11_reversal_identity_500():
    rng = random.Random(1011)
    for _ in range(500):
        n = rng.randint(1, 6)
        cs = [Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(n + 1)]
        while cs[0] == 0:
            cs[0] = Fraction(rng.randint(1, 20), rng.randint(1, 8))
        A = FormalPoly.from_coeffs(cs)
        assert upper_transform(act(A, SWAP))[1] == act(lower_transform(A)[1], SWAP)
    print("ACCEPTANCE 11 PASS: U(reverse(A)) = act(L(A), swap) exactly, 500 trials")


def test_criterion_12_action_laws_300():
    rng = random.Random(1012)
    for _ in range(300):
        n = rng.randint(0, 6)
        A = FormalPoly.from_coeffs(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)]
        )
        g, h = random_mat(rng), random_mat(rng)
        left = act(act(A, g), h)
        right = act(A, mat_mul(g, h))
        assert left == right
        assert act(A, Mat2(1, 0, 0, 1)) == A
        assert left.formal_degree == A.formal_degree
    print("ACCEPTANCE 12 PASS: right-action law, identity, and formal-degree preservation, 300 trials")


def test_criterion_13_certificate_soundness_200():
    rng = random.Random(1013)
    certified = 0
    attempts = 0
    while certified < 200:
        attempts += 1
        assert attempts < 600, "generator failed to produce enough certifiable inputs"
        A, p = random_ed_polynomial(
            rng, max_degree=6, max_unit=6, max_endpoint_val=2, extra_val=1
        )
        if attempts % 3 == 0:  # exercise stage 2 paths, not just stage 1
            A = A.taylor_shift(rng.choice((-1, 1)))
        cert = certify_search(A)
        if not cert.irreducible:
            continue
        certified += 1
        assert cert.witness == act(cert.input, cert.transform)
        assert is_ed(cert.witness, padic(cert.prime)).verdict
        assert brute_irreducible(A).irreducible

        data = certificate_to_json(cert)
        text = json.dumps(data)
        assert json.dumps(json.loads(text)) == text  # serialization is stable
        ok, reason = validate_certificate_json(json.loads(text))
        assert ok, reason
    print(f"ACCEPTANCE 13 PASS: 200 certificates oracle-confirmed and JSON-revalidated ({attempts} draws)")
