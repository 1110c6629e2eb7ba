"""Shared randomized generators for the property suites.

Everything takes an explicit random.Random so each test pins its own seed;
the suites must be reproducible run to run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from edcert import (
    AuditEntry,
    Certificate,
    Factorization,
    FormalPoly,
    Mat2,
    PAdic,
    Verdict,
    act,
    candidate_primes,
    default_t_grid,
    gcd,
    is_ed,
    lower_transform,
    upper_transform,
)
from edcert.certify import _failure_reason
from edcert.exact_arith import DEFAULT_RHO_BUDGET, DEFAULT_TRIAL_BOUND, is_probable_prime

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

_PADICS: dict[int, PAdic] = {}


def padic(p: int) -> PAdic:
    """PAdic with cached primality check."""
    if p not in _PADICS:
        _PADICS[p] = PAdic(p)
    return _PADICS[p]


def nonzero_fraction(rng: random.Random, bound: int = 9) -> Fraction:
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if q != 0:
            return q


def random_int_poly(
    rng: random.Random,
    min_degree: int = 1,
    max_degree: int = 6,
    coeff_bound: int = 50,
    nonzero_ends: bool = True,
) -> FormalPoly:
    n = rng.randint(min_degree, max_degree)
    cs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n + 1)]
    if nonzero_ends:
        while cs[0] == 0:
            cs[0] = rng.randint(-coeff_bound, coeff_bound)
        while cs[-1] == 0:
            cs[-1] = rng.randint(-coeff_bound, coeff_bound)
    return FormalPoly.from_coeffs(cs)


def random_p_content_poly(
    rng: random.Random, p: int, max_degree: int = 8, max_val: int = 5, max_unit: int = 20
) -> FormalPoly:
    """Random polynomial whose coefficients have controlled p-valuations,
    so the Eisenstein-Dumas conditions are sometimes true and sometimes not."""
    n = rng.randint(1, max_degree)
    cs = []
    for _ in range(n + 1):
        if rng.random() < 0.12:
            cs.append(0)
            continue
        u = rng.randint(-max_unit, max_unit)
        while u == 0 or u % p == 0:
            u = rng.randint(-max_unit, max_unit)
        cs.append(p ** rng.randint(0, max_val) * u)
    if cs[-1] == 0:
        cs[-1] = p ** rng.randint(0, max_val)
    return FormalPoly.from_coeffs(cs)


def random_dense_mat(rng: random.Random, bound: int = 9) -> Mat2:
    """Nonsingular with all four entries nonzero."""
    while True:
        entries = [nonzero_fraction(rng, bound) for _ in range(4)]
        try:
            return Mat2(*entries)
        except ValueError:
            continue


def random_shaped_mat(rng: random.Random, shape: str, bound: int = 9) -> Mat2:
    """Nonsingular matrix with the requested zero pattern; the three free
    entries are nonzero."""
    while True:
        s, t, u = (nonzero_fraction(rng, bound) for _ in range(3))
        try:
            if shape == "upper":
                return Mat2(s, t, 0, u)
            if shape == "lower":
                return Mat2(s, 0, t, u)
            if shape == "upper_swap":
                return Mat2(t, s, u, 0)
            if shape == "lower_swap":
                return Mat2(0, s, u, t)
        except ValueError:
            continue
        raise ValueError(f"unknown shape {shape!r}")


def random_mat(rng: random.Random, bound: int = 9) -> Mat2:
    """Any nonsingular matrix, zero entries allowed."""
    while True:
        entries = [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(4)]
        try:
            return Mat2(*entries)
        except ValueError:
            continue


def _reference_brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """Brent's rho as it was, multiplying the batch by |x - y|."""
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, used
    return 0, used


def reference_factor(
    n: int, *, trial_bound: int = DEFAULT_TRIAL_BOUND, rho_budget: int = DEFAULT_RHO_BUDGET
) -> Factorization:
    """factor() as it was before trial division moved to blocks of sieved
    primes: division by 2 and every odd number up to the bound, then the
    rho stage above.  The differential tests compare factor() against it."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    found: dict[int, int] = {}

    d = 2
    while d <= trial_bound and d * d <= n:
        while n % d == 0:
            found[d] = found.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2

    leftover = 1
    if n > 1:
        if d * d > n:
            found[n] = found.get(n, 0) + 1
        else:
            rng = random.Random(n)
            budget = rho_budget
            stack = [n]
            while stack:
                m = stack.pop()
                if is_probable_prime(m):
                    found[m] = found.get(m, 0) + 1
                    continue
                g, used = _reference_brent_rho(m, rng, budget)
                budget -= used
                if g == 0:
                    leftover *= m
                    continue
                stack.append(g)
                stack.append(m // g)

    return Factorization(tuple(sorted(found.items())), leftover)


def random_ed_polynomial(
    rng: random.Random,
    *,
    prime: int | None = None,
    degree: int | None = None,
    min_degree: int = 2,
    max_degree: int = 8,
    max_endpoint_val: int = 4,
    max_unit: int = 20,
    extra_val: int = 2,
    zero_prob: float = 0.15,
    prime_coprime_to_degree: bool = False,
) -> tuple[FormalPoly, int]:
    """Draw a polynomial satisfying (D0)-(D2) by construction; returns (A, p).

    Endpoint valuations v_0, v_n >= 0 are sampled until gcd(v_0 - v_n, n) = 1,
    then a_i = p^e_i * u_i with e_i at least ceil(((n-i)v_0 + i*v_n) / n),
    exactly v_0 and v_n at the endpoints, and units u_i coprime to p.
    Interior coefficients may be zeroed with probability zero_prob.
    """
    if degree is None:
        candidates = [
            m
            for m in range(min_degree, max_degree + 1)
            if not (prime_coprime_to_degree and prime is not None and m % prime == 0)
        ]
        if not candidates:
            raise ValueError("no admissible degree in the requested range")
        degree = rng.choice(candidates)
    n = degree
    if prime is None:
        choices = [q for q in SMALL_PRIMES if not (prime_coprime_to_degree and n % q == 0)]
        prime = rng.choice(choices)
    p = prime
    if prime_coprime_to_degree and n % p == 0:
        raise ValueError(f"degree {n} is divisible by the requested prime {p}")

    while True:
        v0 = rng.randint(0, max_endpoint_val)
        vn = rng.randint(0, max_endpoint_val)
        if gcd(v0 - vn, n) == 1:
            break

    def unit() -> int:
        while True:
            u = rng.randint(-max_unit, max_unit)
            if u != 0 and u % p != 0:
                return u

    coeffs = []
    for i in range(n + 1):
        if i == 0:
            e = v0
        elif i == n:
            e = vn
        else:
            if rng.random() < zero_prob:
                coeffs.append(0)
                continue
            e_min = math.ceil(Fraction((n - i) * v0 + i * vn, n))
            e = e_min + rng.randint(0, extra_val)
        coeffs.append(p**e * unit())
    return FormalPoly.from_coeffs(coeffs), p


_REFERENCE_GRID = default_t_grid(8)


def reference_certify_search(A: FormalPoly) -> Certificate:
    """certify_search as it was with stage 3 (L(A) at every prime p not
    dividing n) and the default search settings: t-height 8, no extra
    primes.  The differential tests compare certify_search against it.

    Its certificates, audit included, equal the old search's; it only
    builds the grid once and reads A' and A(t) once per grid point."""
    n = A.formal_degree
    if A.actual_degree != n:
        raise ValueError("certification requires actual degree equal to the formal degree")
    if n < 2:
        raise ValueError("certification requires degree >= 2")

    cand = candidate_primes(A)
    audit: list[AuditEntry] = []
    upper_pair = cand.upper or upper_transform(A)
    lower_pair = lower_transform(A) if A.coeffs[0] != 0 else None
    grid: list[tuple[Fraction, Fraction, Fraction, Fraction]] | None = None
    members: dict[int, tuple[Mat2, FormalPoly]] = {}
    members_skipped = 0

    def success(vp, stage, transform, witness, report):
        return Certificate(
            A, Verdict.IRREDUCIBLE, vp.p, stage, transform, witness, report, tuple(audit), cand.complete
        )

    def endpoints_pass(b0, bn, vp):
        return b0 != 0 and bn != 0 and gcd(vp.val(b0) - vp.val(bn), n) == 1

    for p in sorted(cand.primes):
        vp = padic(p)
        report = is_ed(A, vp)
        if report.verdict:
            return success(vp, 1, Mat2.identity(), A, report)
        audit.append(AuditEntry(p, 1, _failure_reason(report)))
        if n % p == 0:
            audit.append(
                AuditEntry(p, 0, f"residue characteristic {p} divides the degree {n}; stages 2-4 skipped")
            )
            continue
        m, upper = upper_pair
        report = is_ed(upper, vp)
        if report.verdict:
            return success(vp, 2, m, upper, report)
        audit.append(AuditEntry(p, 2, _failure_reason(report)))
        if lower_pair is None:
            audit.append(AuditEntry(p, 3, "constant coefficient is zero: lower transform undefined"))
        else:
            m, lower = lower_pair
            report = is_ed(lower, vp)
            if report.verdict:
                return success(vp, 3, m, lower, report)
            audit.append(AuditEntry(p, 3, _failure_reason(report)))
        if grid is None:
            grid = []
            dA = A.derivative()
            for t in _REFERENCE_GRID:
                dt, at = dA.eval(t), A.eval(t)
                if dt == 0 or at == 0:  # phi(t) undefined, or a singular member
                    members_skipped += 1
                    continue
                f = t - n * at / dt
                grid.append((t, f, at, A.eval(f)))
        for i, (t, f, at, af) in enumerate(grid):
            if not endpoints_pass(af, at, vp):
                continue
            pair = members.get(i)
            if pair is None:
                m = Mat2(t, f, 1, 1)
                pair = members[i] = m, act(A, m)
            m, member = pair
            report = is_ed(member, vp)
            if report.verdict:
                return success(vp, 4, m, member, report)
        audit.append(
            AuditEntry(
                p,
                4,
                f"no Eisenstein-Dumas member among {len(grid)} admissible "
                f"grid points ({members_skipped} skipped)",
            )
        )
    return Certificate(
        A, Verdict.INCONCLUSIVE, audit=tuple(audit), candidate_primes_complete=cand.complete
    )
