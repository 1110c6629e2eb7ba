import hashlib
import json
import math
import random
import sys
import types
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from edcert import (
    AuditEntry,
    Certificate,
    FormalPoly,
    Mat2,
    SearchConfig,
    Verdict,
    act,
    candidate_primes,
    certify_search,
    is_ed,
    upper_transform,
)
from helpers import (
    SWAP,
    cyclotomic,
    derivative,
    endpoints_pass,
    mat,
    mat_det,
    mat_inv,
    padic,
    phi,
    poly,
    random_dense_mat,
    random_ed_polynomial,
    random_int_poly,
    random_shaped_mat,
    reference_candidate_primes,
    reference_certify_search,
    reference_eager_search,
    reference_gcd_search,
    reference_ratio_values,
    scaled,
    shear,
    upper_ratio_key,
    walked_only,
)
import edcert.certify as certify_module
import edcert.exact_arith as exact_arith_module
import edcert.valuation as valuation_module
from edcert.certify import (
    _bands,
    _failure_reason,
    _ratio_values,
    _family_gate,
    _family_grid,
    _family_member,
    default_t_grid,
    lower_transform,
    one_param_member,
)
from edcert.cli import certificate_to_json, validate_certificate_json
from edcert.exact_arith import TRIAL_BOUND, _first_range_primes, is_probable_prime


def test_upper_transform():
    m, U = upper_transform(poly(8, 4, 1))
    assert m == shear(-2)
    assert U == poly(4, 0, 1)

    A = poly(9, 0, -14, 0, 1)  # a_3 = 0: zero shift
    m, U = upper_transform(A)
    assert m == Mat2(1, 0, 0, 1) and U == A

    m, U = upper_transform(cyclotomic(5))
    assert m == shear(Fraction(-1, 4))
    assert U.coeffs[0] == Fraction(205, 256)
    assert U.coeffs[3] == 0  # the x^(n-1) coefficient is killed

    with pytest.raises(ValueError):
        upper_transform(poly(1, 2, 0, n=2))
    with pytest.raises(ValueError, match="requires formal degree >= 1"):
        upper_transform(poly(5))


def test_lower_transform():
    m, L = lower_transform(poly(8, 4, 1))
    assert m == mat(1, 0, Fraction(-1, 4), 1)
    assert L == poly(8, 0, Fraction(1, 2))
    assert L.coeffs[1] == 0

    A = poly(9, 0, -14, 0, 1)  # a_1 = 0
    m, L = lower_transform(A)
    assert m == Mat2(1, 0, 0, 1) and L == A

    with pytest.raises(ValueError):
        lower_transform(poly(0, 1, 1))
    with pytest.raises(ValueError, match="requires formal degree >= 1"):
        lower_transform(poly(5))


def test_lower_is_reversed_upper():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)]
        while cs[0] == 0:
            cs[0] = Fraction(rng.randint(1, 9))
        A = FormalPoly.from_coeffs(cs)
        assert upper_transform(act(A, SWAP))[1] == act(lower_transform(A)[1], SWAP)


def test_phi():
    A = poly(8, 4, 1)
    assert phi(A, 0) == -4  # 0 - 2 * 8/4
    assert phi(poly(0, 0, 1), 1) == 0  # 1 - 2 * (1/2)
    B = poly(0, 1)  # A(t) = t: phi fixes roots
    assert phi(B, 0) == 0
    with pytest.raises(ValueError):
        phi(poly(5, 0, n=1), 3)  # derivative is zero everywhere


def test_one_param_member():
    A = poly(8, 4, 1)
    m, B = one_param_member(A, 0)
    assert m == Mat2(0, -4, 1, 1)
    assert B == act(A, Mat2(0, -4, 1, 1))
    # determinant identity: det = n A(t) / A'(t)
    assert mat_det(m) == 2 * A.eval(0) / derivative(A).eval(0)

    with pytest.raises(ValueError, match="A'"):
        one_param_member(poly(-1, 0, 1), 0)  # A'(0) = 0
    with pytest.raises(ValueError, match="singular"):
        one_param_member(poly(-1, 0, 1), 1)  # A(1) = 0


def test_one_param_member_endpoints_are_A_at_t_and_phi():
    # The lemma stage 4 filters on: b_n = A(t) and b_0 = A(phi(t)), so the
    # gate on those two values is exactly (D0) and (D1) of the member.
    rng = random.Random(88)
    checked = passed = 0
    for _ in range(150):
        A = random_int_poly(rng, min_degree=2, max_degree=8, coeff_bound=30)
        t = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        try:
            _, member = one_param_member(A, t)
        except ValueError:
            continue
        assert member.coeffs[-1] == A.eval(t)
        assert member.coeffs[0] == A.eval(phi(A, t))
        n = A.formal_degree
        for p in (2, 3, 5, 7):
            vp = padic(p)
            report = is_ed(member, vp)
            gate = endpoints_pass(A.eval(phi(A, t)), A.eval(t), vp, n)
            assert gate == (report.d0 and report.d1), (A, t, p)
            passed += gate
        checked += 1
    assert checked >= 140 and 100 <= passed <= 4 * checked - 100


def _rational_poly(rng):
    """Degree 2-7 with nonzero endpoints; about half the draws have den > 1."""
    n = rng.randint(2, 7)
    dens = (1,) if rng.random() < 0.5 else (1, 2, 3, 4, 6, 9, 10)
    cs = [Fraction(rng.randint(-30, 30), rng.choice(dens)) for _ in range(n + 1)]
    for end in (0, n):
        while cs[end] == 0:
            cs[end] = Fraction(rng.randint(-30, 30), rng.choice(dens))
    return FormalPoly.from_coeffs(cs)


_PRIMES_BELOW_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _family_draws(seed, count):
    """count seeded (A, t, P, Q, F, FP, p) draws: A from _rational_poly, five
    grid points of its family from _family_grid, and p a prime below 50
    dividing den, b or Q in about two thirds of the draws, else 2..13."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        A = _rational_poly(rng)
        points, _ = _family_grid(A)
        for t, P, Q, F, FP in rng.sample(points, min(5, len(points))):
            special = [q for q in _PRIMES_BELOW_50 if A.den % q == 0 or t.denominator % q == 0 or Q % q == 0]
            pool = special if special and rng.random() < 2 / 3 else [2, 3, 5, 7, 11, 13]
            draws.append((A, t, P, Q, F, FP, rng.choice(pool)))
    return draws[:count]


def test_family_grid_is_phi_and_the_endpoints_on_integers():
    # Every third draw has a root at a grid point, so its member is singular.
    rng = random.Random(1501)
    skipped_total = 0
    for i in range(150):
        A = _rational_poly(rng)
        if i % 3 == 0:
            A = A.mul(FormalPoly.from_coeffs([-rng.choice(default_t_grid()), 1]))
        n, dA = A.formal_degree, derivative(A)
        points, skipped = _family_grid(A)
        kept = [t for t in default_t_grid() if A.eval(t) != 0 and dA.eval(t) != 0]
        assert [point[0] for point in points] == kept and skipped == 87 - len(kept), A
        for t, P, Q, F, FP in points:
            assert Fraction(P, Q) == phi(A, t)
            assert F == A.den * t.denominator**n * A.eval(t)
            assert FP == A.den * Q**n * A.eval(Fraction(P, Q))
        skipped_total += skipped
    assert skipped_total >= 50


def test_integer_gate_is_d0_and_d1_of_the_member():
    # The gate reads F and F(P, Q) only; den, b^n and Q^n must drop out of
    # (D1), so the draws favour primes dividing den, b or Q.
    gates = Counter()
    divides = Counter()
    for A, t, P, Q, F, FP, p in _family_draws(1502, 2400):
        vp = padic(p)
        report = is_ed(one_param_member(A, t)[1], vp)
        gate = _family_gate(vp, A.formal_degree, F, FP)
        assert gate == (report.d0 and report.d1), (A, t, p)
        gates[gate] += 1
        divides.update(k for k, x in (("den", A.den), ("b", t.denominator), ("Q", Q)) if x % p == 0)
    assert gates[True] >= 400 and gates[False] >= 400, gates
    assert min(divides["den"], divides["b"], divides["Q"]) >= 200, divides


def test_scaled_member_has_the_members_report():
    # _family_member builds (bQ)^n times the member; is_ed must not tell them apart.
    verdicts = Counter()
    for A, t, P, Q, F, FP, p in _family_draws(1503, 2400):
        member = one_param_member(A, t)[1]
        built = _family_member(A, t, P, Q)
        assert built == scaled(member, (t.denominator * Q) ** A.formal_degree), (A, t)
        report = is_ed(member, padic(p))
        assert is_ed(built, padic(p)) == report, (A, t, p)
        verdicts[report.d0 and report.d1, report.d2] += 1
    assert min(verdicts.values()) >= 50 and len(verdicts) == 4, verdicts


def test_stage_four_hit_certifies_the_exact_member(monkeypatch):
    # By the orbit lemma stage 4 never gives the first hit; with stage 2
    # disabled it does, and its certificate must be the Fraction search's,
    # without the audit entries at the primes the search does not walk.
    def no_shift(A):
        return Mat2(1, 0, 0, 1), A

    monkeypatch.setattr(certify_module, "upper_transform", no_shift)
    monkeypatch.setattr(sys.modules[__name__], "upper_transform", no_shift)
    rng = random.Random(1504)
    hits = 0
    for _ in range(60):
        E, _ = random_ed_polynomial(
            rng, prime_coprime_to_degree=True, max_degree=4, max_unit=6, max_endpoint_val=2, extra_val=1
        )
        A = act(E, random_dense_mat(rng, 3))
        if A.actual_degree != A.formal_degree:
            continue
        cert = certify_search(A)
        assert certificate_to_json(cert) == certificate_to_json(walked_only(_eager_certify_search(A))), A
        if cert.stage == 4:
            assert (cert.transform, cert.witness) == one_param_member(A, cert.transform.entries()[0])
            assert validate_certificate_json(certificate_to_json(cert))[0]
            hits += 1
    assert hits >= 30


def test_the_certify_path_builds_no_fraction(monkeypatch):
    # Hits at stages 1, 2 and 4 (stage 2 disabled, as above) and an
    # inconclusive search, each with a matrix of denominator > 1 where it
    # has one: search and JSON run on the integer forms of FormalPoly and
    # Mat2.  The stage-4 grid is built once per process, before counting.
    default_t_grid()
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def search(A, without_stage_two=False):
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counting)
            if without_stage_two:
                m.setattr(certify_module, "upper_transform", lambda A: (Mat2(1, 0, 0, 1), A))
            cert = certify_search(A)
            certificate_to_json(cert)
        return cert

    stage_one = poly(8, 4, 1)
    stage_two = FormalPoly(27, (53, 9, -27, 27))  # (x - 1/3)^3 + 2
    stage_four = FormalPoly(4, (-1432, -3204, -5346, -2643))
    assert search(stage_one).stage == 1
    assert search(stage_two).transform == shear(Fraction(1, 3))
    cert = search(stage_four, without_stage_two=True)
    assert cert.stage == 4 and cert.transform == mat(-1, Fraction(-22, 3), 1, 1)
    assert not search(poly(9, 0, -14, 0, 1)).irreducible
    assert built == []


def test_candidate_primes_examples():
    cp = candidate_primes(poly(9, 0, -14, 0, 1))
    assert cp.primes == {2, 3} and cp.complete

    cp = candidate_primes(cyclotomic(5))
    assert {2, 5, 41} <= cp.primes and cp.complete

    cp = candidate_primes(poly(8, 4, 1))
    assert 2 in cp.primes and cp.complete


def test_candidate_primes_degenerate():
    cp = candidate_primes(poly(0, 3, 1, 1))  # a_0 = 0
    assert cp.primes == {3} and not cp.complete


def test_candidate_primes_match_the_transform_reference():
    # The ratios come from two endpoint values, A(s) and reverse(A)(s'); the
    # reference builds U(A) and L(A) in full.  Kinds: a_1 = 0 and a_(n-1) = 0
    # (a zero shift), a_0 = 0 and a_n = 0 (degenerate), (k x + r)^n (a zero
    # endpoint in both transforms), and plain draws.
    rng = random.Random(4211)
    kinds = Counter()
    for k in range(660):
        n = 2 + k % 11
        kind = ("plain", "a_1 = 0", "a_(n-1) = 0", "a_0 = 0", "a_n = 0", "power")[k % 6]
        if kind == "power":
            linear = poly(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
            A = poly(rng.choice((-2, 1, Fraction(3, 2))))
            for _ in range(n):
                A = A.mul(linear)
        else:
            cs = [Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 5, 12))) for _ in range(n + 1)]
            cs[0] = cs[0] or Fraction(1)
            cs[n] = cs[n] or Fraction(-7, 3)
            zeroed = {"a_1 = 0": 1, "a_(n-1) = 0": n - 1, "a_0 = 0": 0, "a_n = 0": n}
            if kind in zeroed:
                cs[zeroed[kind]] = Fraction(0)
            A = FormalPoly.from_coeffs(cs)
        got = candidate_primes(A, rho_budget=300)
        assert got == reference_candidate_primes(A, rho_budget=300), (kind, A)
        kinds[kind, got.complete] += 1
    assert sum(kinds.values()) >= 500
    assert kinds["a_0 = 0", False] == kinds["a_n = 0", False] == 110, kinds
    for kind in ("plain", "a_1 = 0", "a_(n-1) = 0", "power"):
        assert kinds[kind, True] >= 50, kinds
    assert kinds["plain", False] >= 5, kinds  # some ratio ran out of rho budget


def test_search_builds_the_upper_transform_only_when_stage_two_runs(monkeypatch):
    real_act = certify_module.act
    calls = []
    monkeypatch.setattr(certify_module, "act", lambda A, g: calls.append(g) or real_act(A, g))
    cert = certify_search(poly(8, 4, 1))  # Eisenstein at 2, the first prime
    assert (cert.stage, cert.prime) == (1, 2) and calls == []

    # (x + 1)^3 + 2: A fails at 2, U(A) = x^3 + 2 is the stage-2 witness
    cert = certify_search(poly(3, 3, 3, 1))
    assert (cert.stage, cert.prime) == (2, 2) and calls == [shear(-1)]


def test_default_t_grid():
    grid = default_t_grid()
    # the points of height 1 and then of height 2, each by value
    assert grid[:7] == (
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(-2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(2),
    )
    assert len(grid) == len(set(grid)) == 87
    assert all(abs(q.numerator) <= 8 and q.denominator <= 8 for q in grid)
    assert default_t_grid() is grid  # built once per process


def test_certify_footnote_example():
    cert = certify_search(poly(8, 4, 1))
    assert cert.irreducible and cert.prime == 2 and cert.stage == 1
    assert cert.transform == Mat2(1, 0, 0, 1)
    assert cert.witness == cert.input
    assert cert.report.verdict


def test_certify_cyclotomics():
    for p in (3, 5, 7):
        cert = certify_search(cyclotomic(p))
        assert cert.irreducible and cert.prime == p and cert.stage == 2
        assert cert.transform == shear(Fraction(-1, p - 1))
        assert is_ed(cert.witness, padic(p)).verdict
        assert cert.witness == act(cert.input, cert.transform)


def test_certify_negative_example():
    cert = certify_search(poly(9, 0, -14, 0, 1))
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.candidate_primes_complete
    assert cert.prime is None and cert.witness is None
    # audit covers stage 1 and the p | n note at p=2, and stages 1, 2 and 4 at p=3
    stages = {(e.prime, e.stage) for e in cert.audit}
    assert stages == {(2, 0), (2, 1), (3, 1), (3, 2), (3, 4)}


def test_certify_attempts_stage_four():
    # the one-parameter stage runs over the whole admissible grid and is
    # audited with skip counts; on this input t = 0 and nothing else is skipped
    cert = certify_search(poly(9, 0, -14, 0, 1))
    entries = [e for e in cert.audit if e.stage == 4]
    assert entries and entries[0].prime == 3
    assert "86 admissible" in entries[0].reason and "1 skipped" in entries[0].reason


def test_certify_dense_conjugates_are_certified():
    rng = random.Random(99)
    checked = 0
    for _ in range(25):
        E, p = random_ed_polynomial(rng, prime_coprime_to_degree=True, max_degree=5)
        g = random_dense_mat(rng, bound=4)
        A = act(E, mat_inv(g))
        if A.actual_degree != A.formal_degree:
            continue
        cert = certify_search(A)
        assert cert.irreducible
        assert cert.witness == act(A, cert.transform)
        assert is_ed(cert.witness, padic(cert.prime)).verdict
        checked += 1
    assert checked >= 15


def test_certify_preconditions():
    with pytest.raises(ValueError):
        certify_search(poly(1, 2, 0, n=2))  # actual < formal degree
    with pytest.raises(ValueError):
        certify_search(poly(3, 1))  # degree 1


@pytest.mark.parametrize("budget", [0, -5])
def test_search_config_rejects_a_budget_below_one(budget):
    with pytest.raises(ValueError, match="at least 1"):
        SearchConfig(rho_budget=budget)


@pytest.mark.parametrize("budget", [2.5, 1000.0, Fraction(1000), "1000", None])
def test_search_config_takes_an_integer_budget(budget):
    with pytest.raises(TypeError):
        SearchConfig(rho_budget=budget)


def test_certify_prime_from_a_transform_ratio():
    # x^2 + 10x + 5: Eisenstein at 5, but 5 only enters via the U/L ratios
    A = poly(5, 10, 1)
    assert candidate_primes(A).primes == {2, 5}
    cert = certify_search(A)
    assert cert.irreducible and cert.prime == 5 and cert.stage == 1


def test_certify_is_deterministic():
    A = poly(9, 0, -14, 0, 1)
    assert certify_search(A) == certify_search(A)
    B = cyclotomic(5)
    assert certify_search(B) == certify_search(B)


def test_triangular_round_trip():
    rng = random.Random(1700)
    shapes = ("upper", "lower", "upper_swap", "lower_swap")
    for trial in range(150):
        E, p = random_ed_polynomial(rng, prime_coprime_to_degree=True, max_degree=6)
        g = random_shaped_mat(rng, shapes[trial % 4])
        A = act(E, mat_inv(g))
        v = padic(p)
        candidates = []
        if A.coeffs[-1] != 0:
            candidates.append(upper_transform(A)[1])
        if A.coeffs[0] != 0:
            candidates.append(lower_transform(A)[1])
        assert any(is_ed(B, v).verdict for B in candidates), (E, g, p)


def test_one_param_round_trip():
    rng = random.Random(1701)
    for _ in range(150):
        E, p = random_ed_polynomial(rng, prime_coprime_to_degree=True, max_degree=6)
        g = random_dense_mat(rng)
        A = act(E, mat_inv(g))
        v = padic(p)
        n = A.formal_degree
        candidates = []
        if A.coeffs[-1] != 0:
            candidates.append(upper_transform(A)[1])
        if A.coeffs[0] != 0:
            candidates.append(lower_transform(A)[1])
        a, _, c, _ = g.entries()
        t = a / c  # s/u from the witness matrix
        if A.eval(t) != 0 and derivative(A).eval(t) != 0:
            m, member = one_param_member(A, t)
            assert mat_det(m) == n * A.eval(t) / derivative(A).eval(t)
            candidates.append(member)
        assert any(is_ed(B, v).verdict for B in candidates), (E, g, p)


def _eager_certify_search(A):
    """certify_search with stage 4 as it was: every grid member is built
    when stage 4 first runs, and each is tested at every candidate prime,
    those that divide neither n nor U(A)'s endpoint ratio included."""
    n = A.formal_degree
    cand = candidate_primes(A)
    audit = []
    upper_pair = upper_transform(A)
    members = None
    members_skipped = 0

    def success(vp, stage, transform, witness, report):
        return Certificate(
            A, Verdict.IRREDUCIBLE, vp.p, stage, transform, witness, report, tuple(audit), cand.complete
        )

    for p in sorted(cand.primes):
        vp = padic(p)
        report = is_ed(A, vp)
        if report.verdict:
            return success(vp, 1, Mat2(1, 0, 0, 1), A, report)
        audit.append(AuditEntry(p, 1, _failure_reason(report)))
        if n % p == 0:
            audit.append(
                AuditEntry(p, 0, f"residue characteristic {p} divides the degree {n}; stages 2 and 4 skipped")
            )
            continue
        m, upper = upper_pair
        report = is_ed(upper, vp)
        if report.verdict:
            return success(vp, 2, m, upper, report)
        audit.append(AuditEntry(p, 2, _failure_reason(report)))
        if members is None:
            members = []
            for t in default_t_grid():
                try:
                    members.append(one_param_member(A, t))
                except ValueError:
                    members_skipped += 1
        for m, member in members:
            report = is_ed(member, vp)
            if report.verdict:
                return success(vp, 4, m, member, report)
        audit.append(
            AuditEntry(
                p,
                4,
                f"no Eisenstein-Dumas member among {len(members)} admissible "
                f"grid points ({members_skipped} skipped)",
            )
        )
    return Certificate(
        A, Verdict.INCONCLUSIVE, audit=tuple(audit), candidate_primes_complete=cand.complete
    )


def test_stage_four_gate_matches_eager_search():
    # Dense draws run stage 4 at every walked prime coprime to n; shifted
    # Eisenstein-Dumas draws often run it at an early prime before a later
    # prime hits.  The reference walks every candidate prime, so its audit
    # entries at the primes the search skips are removed.
    rng = random.Random(3004)
    ran_stage_four = certified_after_stage_four = 0
    for i in range(200):
        if i % 2:
            A = random_int_poly(rng, min_degree=2, max_degree=4, coeff_bound=20)
        else:
            E, _ = random_ed_polynomial(rng, max_degree=4, max_unit=6, max_endpoint_val=2, extra_val=1)
            A = E.taylor_shift(rng.choice((-1, 1)))
        cert = certify_search(A)
        assert certificate_to_json(cert) == certificate_to_json(walked_only(_eager_certify_search(A))), A
        if any(e.stage == 4 for e in cert.audit):
            ran_stage_four += 1
            certified_after_stage_four += cert.irreducible
    assert ran_stage_four >= 100 and certified_after_stage_four >= 30


def test_the_walk_is_the_full_walk_without_the_primes_no_stage_can_hit_at():
    # Full-matrix conjugates E g of Eisenstein-Dumas polynomials, at p not
    # dividing n and at p | n, shifted criterion-13 draws and dense integer
    # draws: the search skips the candidate primes that divide neither n nor
    # U(A)'s endpoint ratio, and its certificate is the full walk's with the
    # audit entries at those primes removed, and nothing else changed.
    rng = random.Random(2707)
    small = dict(max_unit=6, max_endpoint_val=2, extra_val=1)

    def conjugate(**kwargs):
        E, _ = random_ed_polynomial(rng, max_degree=4, **small, **kwargs)
        return act(E, random_dense_mat(rng, 3))

    def conjugate_at_a_divisor_of_n():
        p = rng.choice((2, 3))
        return conjugate(prime=p, degree=p * rng.randint(1, 4 // p))

    makers = (
        ("conjugate", 600, lambda: conjugate(prime_coprime_to_degree=True)),
        ("conjugate, p | n", 200, conjugate_at_a_divisor_of_n),
        ("shifted", 400, lambda: random_ed_polynomial(rng, max_degree=6, **small)[0].taylor_shift(rng.choice((-1, 1)))),
        ("dense", 300, lambda: random_int_poly(rng, min_degree=2, max_degree=5, coeff_bound=20)),
    )
    compared = dropped = 0
    seen = Counter()
    for kind, count, make in makers:
        for _ in range(count):
            A = make()
            if A.actual_degree != A.formal_degree:
                continue
            cert, full = certify_search(A), reference_eager_search(A)
            assert cert == walked_only(full), (kind, A)
            assert json.dumps(certificate_to_json(cert)) == json.dumps(certificate_to_json(walked_only(full))), A
            compared += 1
            dropped += len(full.audit) - len(cert.audit)
            seen[kind, cert.verdict] += 1
    assert compared >= 1000 and dropped >= 2000, (compared, dropped)
    for kind in ("conjugate", "conjugate, p | n", "shifted"):
        assert seen[kind, Verdict.IRREDUCIBLE] >= 100, seen
    assert seen["dense", Verdict.INCONCLUSIVE] >= 150, seen


def test_a_hit_prime_divides_n_or_the_upper_ratio():
    # What the walk rests on: a polynomial that is Eisenstein-Dumas at p as
    # A (stage 1) or as U(A) with p not dividing n (stage 2) has p | n num den,
    # num/den U(A)'s reduced endpoint ratio, read both by _ratio_values and by
    # a Taylor shift.  Draws: E itself, E at a prime dividing its degree, and
    # conjugates E g by full, triangular and swapped matrices.
    rng = random.Random(2708)
    shapes = ("upper", "lower", "upper_swap", "lower_swap")
    hits = Counter()
    for i in range(1800):
        if i % 6 == 0:  # planted at p | n
            p = rng.choice((2, 3))
            E, _ = random_ed_polynomial(rng, prime=p, degree=p * rng.randint(1, 2), max_unit=9)
        else:
            E, p = random_ed_polynomial(rng, max_degree=6, max_unit=9, prime_coprime_to_degree=i % 2 == 1)
        kind = i % 3
        A = E if kind == 0 else act(E, random_dense_mat(rng, 4) if kind == 1 else
                                     random_shaped_mat(rng, rng.choice(shapes), 4))
        n = A.formal_degree
        if A.actual_degree != n or A.nums[0] == 0:
            continue
        vp = padic(p)
        stages = [1] if is_ed(A, vp).verdict else []
        if n % p and is_ed(upper_transform(A)[1], vp).verdict:
            stages.append(2)
        for stage in stages:
            assert upper_ratio_key(A) % p == 0 and _ratio_values(A)[2] % p == 0, (A, p, stage)
            hits[stage, n % p == 0, kind == 1] += 1
    assert sum(hits.values()) >= 1000, hits
    assert hits[1, True, False] >= 100 and hits[2, False, True] >= 100, hits
    assert sum(v for (stage, _, _), v in hits.items() if stage == 1) >= 300, hits


def test_a_rational_point_is_an_int_or_a_fraction():
    # FormalPoly.eval, taylor_shift and one_param_member, three public
    # functions, and the test helper phi take t exactly and agree on what is
    # not a rational point: a float such as 0.5 raises TypeError in each, as
    # does 0.0, where a shift by zero returns at once.
    A = poly(8, 4, 1)
    takers = (A.eval, A.taylor_shift, lambda t: phi(A, t), lambda t: one_param_member(A, t))
    for t in (0.5, 0.0, 1.0, Decimal("0.5"), "1/2", None, 1j):
        for take in takers:
            with pytest.raises(TypeError, match="int or a Fraction"):
                take(t)
    for t in (Fraction(1, 2), Fraction(-3), 2, 0):
        assert A.eval(t) == 8 + 4 * t + t * t
        assert A.taylor_shift(t) == act(A, shear(t))
        assert phi(A, t) == t - 2 * A.eval(t) / derivative(A).eval(t)
        assert one_param_member(A, t) == (mat(t, phi(A, t), 1, 1), act(A, mat(t, phi(A, t), 1, 1)))


def _core(cert):
    return cert.verdict, cert.prime, cert.stage, cert.transform, cert.witness


def test_same_core_answers_as_the_search_with_stage_three():
    # The reference still tests L(A) at every prime not dividing n; by the
    # orbit lemma that never changes the first hit.  The draws are
    # full-matrix conjugates E g of Eisenstein-Dumas polynomials, the
    # criterion-13 recipe with every draw shifted by +-1, and random integer
    # quadratics; degrees are kept low because each draw runs two searches.
    # The search skips the primes no stage can hit at, so fewer draws run
    # stage 4 than the reference does; the last 120 cubic conjugates keep
    # ran_stage_four above its floor.
    rng = random.Random(6006)
    small = dict(max_unit=6, max_endpoint_val=2, extra_val=1)

    def conjugate(degree):
        E, _ = random_ed_polynomial(rng, degree=degree, **small)
        return act(E, random_dense_mat(rng, 2))

    makers = (
        (700, lambda: conjugate(2)),
        (40, lambda: conjugate(3)),
        (40, lambda: random_ed_polynomial(rng, max_degree=6, **small)[0].taylor_shift(rng.choice((-1, 1)))),
        (240, lambda: random_int_poly(rng, min_degree=2, max_degree=2, coeff_bound=9)),
        (120, lambda: conjugate(3)),
    )
    compared = ran_stage_four = 0
    stages = {}
    for count, make in makers:
        for _ in range(count):
            A = make()
            if A.actual_degree != A.formal_degree:
                continue
            cert = certify_search(A)
            assert _core(cert) == _core(reference_certify_search(A)), A
            gcd_core, complete = reference_gcd_search(A)
            assert complete and cert.candidate_primes_complete, A
            assert _core(cert) == gcd_core, A
            compared += 1
            ran_stage_four += any(e.stage == 4 for e in cert.audit)
            stages[cert.stage] = stages.get(cert.stage, 0) + 1
    # Stage 3 could only matter in a draw that went past stage 2 at some prime.
    assert compared >= 1000 and ran_stage_four >= 400 and stages[2] >= 600, (ran_stage_four, stages)


def test_orbit_lemma_lower_hit_implies_upper_hit():
    # Orbit lemma: for p not dividing n, E Eisenstein-Dumas at p and any g,
    # U(E g) is Eisenstein-Dumas at p; in particular whenever L(E g) is.
    rng = random.Random(6007)
    checked = lower_hits = 0
    for _ in range(400):
        E, p = random_ed_polynomial(rng, prime_coprime_to_degree=True, max_degree=6)
        A = act(E, random_dense_mat(rng, bound=6))
        if A.coeffs[-1] == 0 or A.coeffs[0] == 0:
            continue
        v = padic(p)
        lower_hits += is_ed(lower_transform(A)[1], v).verdict
        assert is_ed(upper_transform(A)[1], v).verdict, (E, A, p)
        checked += 1
    assert checked >= 350 and lower_hits >= 50


# sha256 of the certificate JSON texts, one line each, over each workload's
# inputs in list order; bench/reference/ keeps per-input digests, but not all
# of them are current, so these pin the whole text.
_PINNED_CERTIFICATES = {
    "mixed-lowdeg": "98c35e3150880a4f45fa7d2173c188570217777baeaa97aef3140f46e83d5956",
    "cyclo-shift": "a4880dd9408885e747b37a076fa7d04b92faa1aa2ed0eb0072b92720ac1ca2bd",
    "dense-search": "5ecb368efe1b062dfa2b56d83cca8433e90e400d3d6fdbbc8871b42e25a9b990",
}


def test_certificate_json_is_pinned_on_the_bench_corpus(monkeypatch):
    # bench/corpus.py runs from its source text, so nothing is written under
    # bench/; it imports nothing from edcert.
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    corpus = types.ModuleType("bench_corpus")
    monkeypatch.setitem(sys.modules, corpus.__name__, corpus)  # for its dataclass
    exec(compile(path.read_text(), str(path), "exec"), corpus.__dict__)
    for workload, digest in _PINNED_CERTIFICATES.items():
        h = hashlib.sha256()
        for item in corpus.inputs(workload):
            cert = certify_search(FormalPoly.from_coeffs(item.coeffs))
            h.update((json.dumps(certificate_to_json(cert)) + "\n").encode())
        assert h.hexdigest() == digest, workload


# The search walks the candidate primes below 4096 (band 1, which the first
# trial range finds) before it factors anything in full; see certify_search.
_INCOMPLETE = {"prime": None, "stage": 0, "reason": "candidate prime set possibly incomplete"}


def _eisenstein_with_a_large_tail(rng):
    """Eisenstein at a small prime q, with a_0 = q P R for primes P, R above
    the trial bound: L(A)'s endpoint ratio keeps P R, a tail of at least
    (TRIAL_BOUND + 1)^2 that Brent rho must split."""

    def prime_from(x):
        while not is_probable_prime(x):
            x += 1
        return x

    q = rng.choice((2, 3, 5, 7))
    P, R = (prime_from(rng.randrange(TRIAL_BOUND, 10 * TRIAL_BOUND)) for _ in range(2))
    n = rng.randint(2, 5)
    lead = rng.choice((1, -1)) * (rng.randint(0, 9) * q + 1)
    return FormalPoly.from_coeffs([q * P * R] + [q * rng.randint(-9, 9) for _ in range(n - 1)] + [lead])


def test_band_one_search_matches_the_eager_search():
    # The whole certificate, audit and completeness flag included, and its
    # JSON text equal those of the search that factors in full first, once
    # that search's audit entries at the primes dividing neither n nor U(A)'s
    # endpoint ratio, which the search does not walk, are removed.  Brent
    # rho is cut to 20 000 iterations where it would take seconds (both
    # searches get the same budget): Phi_13(x + 4) takes about 1 s at the
    # default, and so do a few of the draws planted at large primes.
    rng = random.Random(4099)
    cheap = SearchConfig(rho_budget=20_000)
    draws = []
    for i in range(540):  # the criterion-13 recipe
        A, _ = random_ed_polynomial(rng, max_degree=6, max_unit=6, max_endpoint_val=2, extra_val=1)
        draws.append(("ed", A.taylor_shift(rng.choice((-1, 1))) if i % 3 == 0 else A, None))
    draws += [("cyclotomic", cyclotomic(p).taylor_shift(k), cheap)
              for p in (3, 5, 7, 11, 13) for k in range(-4, 5)]
    draws += [("dense", random_int_poly(rng, 6, 10, 50), None) for _ in range(60)]
    for q in (4099, 65537, 1000003):  # band 1 misses, unless a small prime hits too
        draws += [("planted", random_ed_polynomial(rng, prime=q, max_degree=4, max_unit=6,
                                                   max_endpoint_val=2, extra_val=1)[0], cheap)
                  for _ in range(60)]
    draws += [("large tail", _eisenstein_with_a_large_tail(rng), SearchConfig(rho_budget=1))
              for _ in range(100)]
    draws += [("a_0 = 0", FormalPoly.from_coeffs([0] + list(random_int_poly(rng, 1, 5, 30).nums)), None)
              for _ in range(100)]
    seen = Counter()
    for kind, A, config in draws:
        cert, ref = certify_search(A, config), walked_only(reference_eager_search(A, config))
        assert cert == ref, (kind, A)
        assert json.dumps(certificate_to_json(cert)) == json.dumps(certificate_to_json(ref)), (kind, A)
        band = None if cert.prime is None else 1 if cert.prime < 4096 else 2
        seen[kind, cert.verdict, band, cert.candidate_primes_complete] += 1
    assert len(draws) >= 1000
    assert seen["dense", Verdict.INCONCLUSIVE, None, True] >= 55, seen
    assert sum(v for (kind, _, band, _), v in seen.items() if kind == "planted" and band == 2) >= 100, seen
    assert seen["large tail", Verdict.IRREDUCIBLE, 1, False] == 100, seen
    assert seen["a_0 = 0", Verdict.INCONCLUSIVE, None, False] == 100, seen


def test_a_hit_below_4096_factors_nothing_in_full(monkeypatch):
    # Counted, not timed: the search settles these two without factor and
    # tests no number of 4096^2 or more for primality; factoring in full
    # first tests the cofactor 18535848059 of mixed-lowdeg/0226.  Their values
    # are all below (TRIAL_BOUND + 1)^2, so nothing is stripped of band 1
    # either, and the paper's set is never built.  A hit with a tail of
    # (TRIAL_BOUND + 1)^2 or more still builds it once, stripping its values
    # and factoring its tails, for its flag.
    calls, operands, strips, sets = [], [], [], []
    real_factor, real_test, real_strip, real_set = (
        certify_module.factor, exact_arith_module.is_probable_prime, exact_arith_module._strip,
        certify_module._paper_set)

    def counted_factor(n, **kwargs):
        calls.append(n)
        return real_factor(n, **kwargs)

    def counted_test(n):
        operands.append(n)
        return real_test(n)

    def counted_strip(n, primes, found):
        strips.append(n)
        return real_strip(n, primes, found)

    def counted_set(*args):
        sets.append(args)
        return real_set(*args)

    monkeypatch.setattr(certify_module, "factor", counted_factor)
    monkeypatch.setattr(exact_arith_module, "is_probable_prime", counted_test)
    monkeypatch.setattr(valuation_module, "is_probable_prime", counted_test)
    monkeypatch.setattr(certify_module, "_strip", counted_strip)
    monkeypatch.setattr(exact_arith_module, "_strip", counted_strip)
    monkeypatch.setattr(certify_module, "_paper_set", counted_set)
    # x^2 + 4x + 8, and mixed-lowdeg/0226, an input at the median certify time
    for A in (poly(8, 4, 1), poly(28, -686, -2058, 98, -196, 294, -196)):
        assert max(_ratio_values(A)[0]) < (TRIAL_BOUND + 1) ** 2, A
        cert = certify_search(A)
        assert cert.irreducible and cert.prime < 4096 and cert.candidate_primes_complete
        assert calls == [] and operands and max(operands) < 4096**2, (A, operands)
        assert strips == [] and sets == [], (A, strips, sets)
    cert = certify_search(cyclotomic(13).taylor_shift(4), SearchConfig(rho_budget=20_000))
    assert cert.irreducible and cert.prime == 13 and calls and strips and len(sets) == 1
    assert _INCOMPLETE in certificate_to_json(cert)["audit"]


def test_a_search_strips_each_value_once_and_factors_each_tail_once(monkeypatch):
    # x^2 + 4099 misses in band 1 ({2}) and hits at 4099, a tail; so does
    # x^2 + 4099 (10^9 + 7), whose flag then needs the set too, as its value
    # is above (TRIAL_BOUND + 1)^2; Phi_13(x + 4) hits at 13 in band 1 and
    # factors its large tails for the flag.  Each computes its values once,
    # and builds the paper's set from them once, on first need, stripping
    # them of band 1 once.
    first_range_product = math.prod(p for p in range(2, 4096) if is_probable_prime(p))
    computed, strips, operands, sets = [], [], [], []
    real_values, real_bands, real_factor, real_set = (
        certify_module._ratio_values, certify_module._bands, certify_module.factor,
        certify_module._paper_set)

    def counted_values(A):
        computed.append(A)
        return real_values(A)

    def counted_bands(values):
        strips.append(values)
        return real_bands(values)

    def counted_factor(n, **kwargs):
        operands.append(n)
        return real_factor(n, **kwargs)

    def counted_set(values, degenerate, rho_budget):
        sets.append(values)
        return real_set(values, degenerate, rho_budget)

    monkeypatch.setattr(certify_module, "_ratio_values", counted_values)
    monkeypatch.setattr(certify_module, "_bands", counted_bands)
    monkeypatch.setattr(certify_module, "factor", counted_factor)
    monkeypatch.setattr(certify_module, "_paper_set", counted_set)
    for A, config, prime in ((poly(4099, 0, 1), None, 4099), (poly(4099 * (10**9 + 7), 0, 1), None, 4099),
                             (cyclotomic(13).taylor_shift(4), SearchConfig(rho_budget=20_000), 13)):
        computed.clear()
        strips.clear()
        operands.clear()
        sets.clear()
        cert = certify_search(A, config)
        assert cert.irreducible and cert.prime == prime, A
        assert computed == [A] and strips == [real_values(A)[0]] and sets == strips, A
        assert operands and len(set(operands)) == len(operands), (A, operands)
        assert all(math.gcd(x, first_range_product) == 1 for x in operands), (A, operands)


# Values at the end of band 1: two primes next to 4096 (the split walks all
# 564 primes), a square, a prime from each half, and primes above 4096 with
# small ones.
_BAND1_CLIFFS = (
    4091 * 4093, 4093**2, 2113 * 4093, 4093, 2 * 3 * 5 * 4099, 36 * 1000003,
    2 * 4093 * 1000003, 6 * 4099**2, 4091 * 4093 * 4099, 2**12 * 4093**3,
)


def test_ratio_values_match_division_by_every_prime_below_4096():
    # Band 1 comes from one gcd over the product of the values, split over the
    # first range's primes; the reference divides each value by all of them.
    # The last value, n times U(A)'s ratio, the reference reads from a
    # Taylor shift; (k x + r)^n has b_0 = 0 in U(A) and L(A), so it is n.
    rng = random.Random(4093)
    inputs = []
    for i in range(150):  # criterion-13 draws, every third shifted
        A, _ = random_ed_polynomial(rng, max_degree=6, max_unit=6, max_endpoint_val=2, extra_val=1)
        inputs.append(A.taylor_shift(rng.choice((-1, 1))) if i % 3 == 0 else A)
    inputs += [cyclotomic(p).taylor_shift(k) for p in (3, 5, 7, 11, 13) for k in range(-4, 5)]
    inputs += [random_int_poly(rng, min_degree=2, max_degree=8) for _ in range(100)]
    for _ in range(30):  # a_0 = 0, and a zero coefficient at the formal degree
        A = random_int_poly(rng, min_degree=1, max_degree=5)
        inputs += [poly(0, *A.nums), poly(*A.nums, n=A.formal_degree + 1)]
    for c in _BAND1_CLIFFS:
        # x^2 + c has the values 2, c and 1; c x^3 + 4091 has 3, 4091 and c
        # over their gcd, so band 1 is split from a product of two values
        inputs += [poly(c, 0, 1), poly(-c, 0, 1), poly(c, 1, 1), poly(4091, 0, 0, c)]
    for n in range(2, 8):
        linear, power = poly(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4)), poly(1)
        for _ in range(n):
            power = power.mul(linear)
        inputs.append(power)
    keys = Counter()
    for A in inputs:
        values, degenerate, key = _ratio_values(A)
        band1, tails = _bands(values)
        assert (band1, tails, degenerate, key) == reference_ratio_values(A), A
        # the walk's band 1, read from n num den alone, is band 1 filtered by it
        assert _first_range_primes(key) == [p for p in band1 if key % p == 0], A
        keys[key == A.formal_degree] += 1
    assert keys[True] >= 66 and keys[False] >= 300, keys
    values, _, key = _ratio_values(poly(4093, 0, 0, 4091))
    assert _bands(values) == ([3, 4091, 4093], []) and key == 3 * 4091 * 4093
    values, _, key = _ratio_values(poly(4099 * 7, 0, 1))  # U(A) = A, L(A) = A: the ratio 28693
    assert values == [2, 28693, 1, 1, 28693] and _bands(values) == ([2, 7], [4099]) and key == 2 * 7 * 4099


def test_the_flag_stays_exact_at_the_default_budget():
    # Phi_13(x + 4) hits at 13, but an endpoint-ratio tail of it exhausts Brent
    # rho at the default budget, so the certificate says its prime set is
    # possibly incomplete, as the search that factors in full first did.
    cert = certify_search(cyclotomic(13).taylor_shift(4))
    assert cert.irreducible and cert.prime == 13 and not cert.candidate_primes_complete
    assert _INCOMPLETE in certificate_to_json(cert)["audit"]


def test_the_lazy_flag_is_the_flag_of_the_paper_set():
    # The search sets candidate_primes_complete without stripping anything
    # when every value is below (TRIAL_BOUND + 1)^2, and otherwise reads the
    # tails and their factorizations; either way it is the flag of
    # candidate_primes, which factors every tail.  Draws: values just below
    # and just above that bound, among them semiprimes of two primes above
    # TRIAL_BOUND, which Brent rho cut to one iteration cannot split, and
    # values above it whose tails are below it; values that large only in
    # L(A)'s ratio; degenerate inputs (a_0 = 0); Phi_p(x + k); and the
    # criterion-13 recipe.
    rng = random.Random(2929)
    square = (TRIAL_BOUND + 1) ** 2
    default, cheap, starved = SearchConfig(), SearchConfig(rho_budget=20_000), SearchConfig(rho_budget=1)

    def prime_from(x):
        while not is_probable_prime(x):
            x += 1
        return x

    draws = []
    # x^2 + c has the values 2, c, 1, 1 and c
    for d in range(-100, 100):
        draws.append(("edge", poly(square + d, 0, 1), rng.choice((default, starved))))
    for _ in range(100):
        P, R = (prime_from(TRIAL_BOUND + rng.randrange(1, 4000)) for _ in range(2))
        draws.append(("semiprime", poly(rng.choice((1, -1)) * P * R, 0, 1), rng.choice((default, starved))))
    for _ in range(100):
        q = rng.choice((2, 3, 6, 10, 4093))
        draws.append(("small tail", poly(q * (square // q + rng.randrange(1, 500)), 0, 1), starved))
    # x^3 + a_1 x + a_0: U(A) = A has the ratio a_0, and L(A)'s ratio is
    # (27 a_0^2 + 2 a_1^3) / (27 a_0^3) before reduction, so only L(A)'s
    # numerator reaches the bound, from a_1 = 7938 on.
    for _ in range(200):
        a1 = rng.choice((1, -1)) * (rng.randrange(7880, 8000) if rng.random() < 0.5 else rng.randrange(8000, 10**6))
        a0 = rng.choice((1, -1)) * rng.randint(1, 12)
        draws.append(("lower only", poly(a0, a1, 0, 1), rng.choice((default, starved))))
    for _ in range(100):
        draws.append(("a_0 = 0", poly(0, *random_int_poly(rng, 1, 5, 30).nums), default))
    draws += [("cyclotomic", cyclotomic(p).taylor_shift(k), rng.choice((cheap, starved)))
              for p in (3, 5, 7, 11, 13) for k in range(-4, 5)]
    for i in range(400):
        A, _ = random_ed_polynomial(rng, max_degree=6, max_unit=6, max_endpoint_val=2, extra_val=1)
        draws.append(("ed", A.taylor_shift(rng.choice((-1, 1))) if i % 3 == 0 else A, default))
    seen = Counter()
    for kind, A, config in draws:
        flag = certify_search(A, config).candidate_primes_complete
        assert flag == candidate_primes(A, rho_budget=config.rho_budget).complete, (kind, A, config)
        values = _ratio_values(A)[0]
        if kind == "lower only":
            assert max(values[:3]) < square, A
        seen[kind, max(values) < square, flag] += 1
    assert len(draws) >= 1000, len(draws)
    assert seen["edge", True, True] == 100 and seen["edge", False, True] == 100, seen
    assert seen["semiprime", False, False] >= 30 and seen["small tail", False, True] == 100, seen
    assert seen["lower only", True, True] >= 50 and seen["lower only", False, True] >= 50, seen
    assert seen["lower only", False, False] >= 4 and seen["a_0 = 0", True, False] == 100, seen
    assert seen["cyclotomic", False, False] >= 3 and seen["ed", True, True] >= 300, seen
