import random
from collections import Counter
from fractions import Fraction

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
    default_t_grid,
    is_ed,
    lower_transform,
    one_param_member,
    phi,
    upper_transform,
)
from helpers import (
    padic,
    random_dense_mat,
    random_ed_polynomial,
    random_int_poly,
    random_shaped_mat,
    reference_candidate_primes,
    reference_certify_search,
)
import edcert.certify as certify_module
from edcert.certify import _endpoints_pass, _failure_reason
from edcert.cli import certificate_to_json


def poly(*coeffs, n=None):
    return FormalPoly.from_coeffs(coeffs, formal_degree=n)


def cyclotomic(p):
    return FormalPoly.from_coeffs([1] * p)


def test_upper_transform():
    m, U = upper_transform(poly(8, 4, 1))
    assert m == Mat2.shear(-2)
    assert U == poly(4, 0, 1)

    A = poly(9, 0, -14, 0, 1)  # a_3 = 0: zero shift
    m, U = upper_transform(A)
    assert m == Mat2.identity() and U == A

    m, U = upper_transform(cyclotomic(5))
    assert m == Mat2.shear(Fraction(-1, 4))
    assert U.constant == Fraction(205, 256)
    assert U.coeffs[3] == 0  # the x^(n-1) coefficient is killed

    with pytest.raises(ValueError):
        upper_transform(poly(1, 2, 0, n=2))


def test_lower_transform():
    m, L = lower_transform(poly(8, 4, 1))
    assert m == Mat2(1, 0, Fraction(-1, 4), 1)
    assert L == poly(8, 0, Fraction(1, 2))
    assert L.coeffs[1] == 0

    A = poly(9, 0, -14, 0, 1)  # a_1 = 0
    m, L = lower_transform(A)
    assert m == Mat2.identity() and L == A

    with pytest.raises(ValueError):
        lower_transform(poly(0, 1, 1))


def test_lower_is_reversed_upper():
    rng = random.Random(31)
    swap = Mat2.swap()
    for _ in range(100):
        n = rng.randint(1, 6)
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)]
        while cs[0] == 0:
            cs[0] = Fraction(rng.randint(1, 9))
        A = FormalPoly.from_coeffs(cs)
        assert upper_transform(A.reverse())[1] == act(lower_transform(A)[1], swap)


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
    assert m.det == 2 * A.eval(0) / A.derivative().eval(0)

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
            gate = _endpoints_pass(A.eval(phi(A, t)), A.eval(t), vp, n)
            assert gate == (report.d0 and report.d1), (A, t, p)
            passed += gate
        checked += 1
    assert checked >= 140 and 100 <= passed <= 4 * checked - 100


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
    assert (cert.stage, cert.prime) == (2, 2) and calls == [Mat2.shear(-1)]


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
    assert cert.transform == Mat2.identity()
    assert cert.witness == cert.input
    assert cert.report.verdict


def test_certify_cyclotomics():
    for p in (3, 5, 7):
        cert = certify_search(cyclotomic(p))
        assert cert.irreducible and cert.prime == p and cert.stage == 2
        assert cert.transform == Mat2.shear(Fraction(-1, p - 1))
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
        A = act(E, g.inverse())
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
        A = act(E, g.inverse())
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
        A = act(E, g.inverse())
        v = padic(p)
        n = A.formal_degree
        candidates = []
        if A.coeffs[-1] != 0:
            candidates.append(upper_transform(A)[1])
        if A.coeffs[0] != 0:
            candidates.append(lower_transform(A)[1])
        t = g.a / g.c  # s/u from the witness matrix
        if A.eval(t) != 0 and A.derivative().eval(t) != 0:
            m, member = one_param_member(A, t)
            assert m.det == n * A.eval(t) / A.derivative().eval(t)
            candidates.append(member)
        assert any(is_ed(B, v).verdict for B in candidates), (E, g, p)


def _eager_certify_search(A):
    """certify_search with stage 4 as it was: every grid member is built
    when stage 4 first runs, and each is tested at every prime."""
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
            return success(vp, 1, Mat2.identity(), A, report)
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
    # Dense draws run stage 4 at every prime coprime to n; shifted
    # Eisenstein-Dumas draws often run it at an early prime before a later
    # prime hits.
    rng = random.Random(3004)
    ran_stage_four = certified_after_stage_four = 0
    for i in range(200):
        if i % 2:
            A = random_int_poly(rng, min_degree=2, max_degree=4, coeff_bound=20)
        else:
            E, _ = random_ed_polynomial(rng, max_degree=4, max_unit=6, max_endpoint_val=2, extra_val=1)
            A = E.taylor_shift(rng.choice((-1, 1)))
        cert = certify_search(A)
        assert certificate_to_json(cert) == certificate_to_json(_eager_certify_search(A)), A
        if any(e.stage == 4 for e in cert.audit):
            ran_stage_four += 1
            certified_after_stage_four += cert.irreducible
    assert ran_stage_four >= 100 and certified_after_stage_four >= 30


def _core(cert):
    return cert.verdict, cert.prime, cert.stage, cert.transform, cert.witness


def test_same_core_answers_as_the_search_with_stage_three():
    # The reference still tests L(A) at every prime not dividing n; by the
    # orbit lemma that never changes the first hit.  The draws are
    # full-matrix conjugates E g of Eisenstein-Dumas polynomials, the
    # criterion-13 recipe with every draw shifted by +-1, and random integer
    # quadratics; degrees are kept low because each draw runs two searches.
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
