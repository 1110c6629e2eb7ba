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
    CandidatePrimes,
    Certificate,
    EDReport,
    Factorization,
    FormalPoly,
    Mat2,
    PAdic,
    SearchConfig,
    Verdict,
    act,
    candidate_primes,
    factor,
    is_ed,
    upper_transform,
)
from edcert.certify import (
    _failure_reason,
    _family_gate,
    _family_grid,
    _family_member,
    default_t_grid,
    lower_transform,
)
from edcert.certificate import MAX_DEGREE, PolyParseError, read_rational
from edcert.cli import parse_poly
from edcert.exact_arith import DEFAULT_RHO_BUDGET, TRIAL_BOUND, _strong_lucas

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

_PADICS: dict[int, PAdic] = {}


def padic(p: int) -> PAdic:
    """PAdic with cached primality check."""
    if p not in _PADICS:
        _PADICS[p] = PAdic(p)
    return _PADICS[p]


def poly(*coeffs: Fraction | int, n: int | None = None) -> FormalPoly:
    """The FormalPoly a_0 + a_1 x + ..., zero-padded to formal degree n when
    n is given."""
    pad = 0 if n is None else n + 1 - len(coeffs)
    assert pad >= 0, f"formal degree {n} is below the coefficient count {len(coeffs)}"
    return FormalPoly.from_coeffs(coeffs + (0,) * pad)


def cyclotomic(p: int) -> FormalPoly:
    """Phi_p = 1 + x + ... + x^(p-1) for a prime p."""
    return FormalPoly.from_coeffs([1] * p)


def rational_val(v: PAdic, q: Fraction | int) -> int:
    """v(q) for a nonzero rational q: v of its numerator less v of its
    denominator, as PAdic.val reads integers only."""
    q = Fraction(q)
    return v.val(q.numerator) - v.val(q.denominator)


def mat(a: Fraction | int, b: Fraction | int, c: Fraction | int, d: Fraction | int) -> Mat2:
    """The Mat2 [[a, b], [c, d]] for rational entries, their denominators
    cleared into den; Mat2 itself takes integers only."""
    qs = [Fraction(x) for x in (a, b, c, d)]
    lam = math.lcm(*(q.denominator for q in qs))
    return Mat2(*(q.numerator * (lam // q.denominator) for q in qs), lam)


# The package ships no matrix product, inverse or determinant, and no t A or
# A'; the tests build them here.  Reversal, argument scaling and shears are
# act(A, SWAP), act(A, mat(t, 0, 0, 1)) and act(A, shear(t)).

SWAP = Mat2(0, 1, 1, 0)


def shear(t: Fraction | int) -> Mat2:
    """[[1, t], [0, 1]]; acting by it is the Taylor shift by t."""
    return mat(1, t, 0, 1)


def mat_mul(g: Mat2, h: Mat2) -> Mat2:
    """The matrix product g h, so that act(A, g h) = act(act(A, g), h)."""
    return Mat2(
        g.a * h.a + g.b * h.c,
        g.a * h.b + g.b * h.d,
        g.c * h.a + g.d * h.c,
        g.c * h.b + g.d * h.d,
        g.den * h.den,
    )


def mat_inv(g: Mat2) -> Mat2:
    """den / (ad - bc) times [[d, -b], [-c, a]]."""
    m = g.den
    return Mat2(m * g.d, -m * g.b, -m * g.c, m * g.a, g.a * g.d - g.b * g.c)


def mat_det(g: Mat2) -> Fraction:
    return Fraction(g.a * g.d - g.b * g.c, g.den**2)


def scaled(A: FormalPoly, t: Fraction | int) -> FormalPoly:
    """t A at the formal degree of A."""
    t = Fraction(t)
    return FormalPoly(A.den * t.denominator, tuple(x * t.numerator for x in A.nums))


def derivative(A: FormalPoly) -> FormalPoly:
    """A' at formal degree n - 1; a constant's is the zero constant."""
    return FormalPoly(A.den, tuple(i * x for i, x in enumerate(A.nums))[1:] or (0,))


def phi(A: FormalPoly, t: Fraction | int) -> Fraction:
    """t - n A(t)/A'(t), the family's second entry, computed with
    FormalPoly.eval, independently of one_param_member's integer form.
    A'(t) = 0 raises ValueError, and a t that is not an int or a Fraction
    raises TypeError in eval."""
    slope = derivative(A).eval(t)
    if slope == 0:
        raise ValueError("phi undefined: A'(t) = 0")
    return t - A.formal_degree * A.eval(t) / slope


def parse_rational(text: str) -> Fraction:
    """certificate.read_rational as a Fraction, as the CLI reads a --matrix
    entry; a non-string raises TypeError."""
    return Fraction(*read_rational(text))


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


def reference_is_ed_strict(A: FormalPoly, v: PAdic) -> bool:
    """The Eisenstein-Dumas verdict with (D2) strict at the interior indices
    1..n-1, the form equivalent to is_ed's non-strict bound given (D0) and
    (D1); read from the Fractions a_i, not from the integer form is_ed reads."""
    a, n = A.coeffs, A.formal_degree
    if a[0] == 0 or a[n] == 0:
        return False
    v0, vn = rational_val(v, a[0]), rational_val(v, a[n])
    return math.gcd(v0 - vn, n) == 1 and all(
        n * rational_val(v, a[i]) > (n - i) * v0 + i * vn for i in range(1, n) if a[i] != 0
    )


def reference_int_val(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n, one division per unit, as
    valuation._int_val computed it before the squaring kernel."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def reference_is_ed(A: FormalPoly, p: int) -> EDReport:
    """is_ed as it was before (D2) became a divisibility test: every nonzero
    numerator is valued by reference_int_val, and (D2) fails at the first
    index with n v(a_i) < (n-i) v(a_0) + i v(a_n)."""
    n, nums = A.formal_degree, A.nums
    if nums[0] == 0 or nums[n] == 0:
        return EDReport(d0=False, d1=False, d2=False)
    v0, vn = reference_int_val(nums[0], p), reference_int_val(nums[n], p)
    d1_gcd = math.gcd(v0 - vn, n)
    failing = None
    for i, x in enumerate(nums):
        if x and n * reference_int_val(x, p) < (n - i) * v0 + i * vn:
            failing = i
            break
    return EDReport(
        d0=True, d1=d1_gcd == 1, d2=failing is None, d1_gcd=d1_gcd, d2_failing_index=failing
    )


def random_dense_mat(rng: random.Random, bound: int = 9) -> Mat2:
    """Nonsingular with all four entries nonzero."""
    while True:
        entries = [nonzero_fraction(rng, bound) for _ in range(4)]
        try:
            return mat(*entries)
        except ValueError:
            continue


def random_shaped_mat(rng: random.Random, shape: str, bound: int = 9) -> Mat2:
    """Nonsingular matrix with the requested zero pattern; the three free
    entries are nonzero."""
    while True:
        s, t, u = (nonzero_fraction(rng, bound) for _ in range(3))
        try:
            if shape == "upper":
                return mat(s, t, 0, u)
            if shape == "lower":
                return mat(s, 0, t, u)
            if shape == "upper_swap":
                return mat(t, s, u, 0)
            if shape == "lower_swap":
                return mat(0, s, u, t)
        except ValueError:
            continue
        raise ValueError(f"unknown shape {shape!r}")


def random_mat(rng: random.Random, bound: int = 9) -> Mat2:
    """Any nonsingular matrix, zero entries allowed."""
    while True:
        entries = [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(4)]
        try:
            return mat(*entries)
        except ValueError:
            continue


def fraction_poly(coeffs: list[Fraction]) -> FormalPoly:
    """The FormalPoly with coefficients coeffs, built by the (den, nums)
    constructor; an empty list raises its ValueError."""
    D = math.lcm(*(c.denominator for c in coeffs))
    return FormalPoly(D, tuple(c.numerator * (D // c.denominator) for c in coeffs))


def _fraction_shift(cs: list[Fraction], t: Fraction) -> list[Fraction]:
    """The coefficients of sum cs_i (x + t)^i, by repeated synthetic division."""
    out, n = list(cs), len(cs) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            out[k] += t * out[k + 1]
    return out


def _reference_taylor_shift(A: FormalPoly, t: Fraction) -> FormalPoly:
    """A(x + t) by repeated synthetic division on Fractions, as
    FormalPoly.taylor_shift computed it before the integer kernel."""
    return fraction_poly(_fraction_shift(A.coeffs, t))


def reference_act(A: FormalPoly, g: Mat2) -> FormalPoly:
    """act as it was before the integer kernel: the right-action
    factorization of g into Taylor shifts, argument scalings and a reversal
    of the list of Fraction coefficients,

        c = 0:  g = shear(b/d) diag(a/d, 1) (d I),
        c != 0: g = shear(a/c) diag(-det/c, 1) swap diag(c, 1) shear(d/c).

    The differential test compares act against it."""
    a, b, c, d = g.entries()
    n = A.formal_degree
    if c == 0:
        B = _fraction_shift(A.coeffs, b / d)
        return fraction_poly([x * (a / d) ** i * d**n for i, x in enumerate(B)])
    s = (b * c - a * d) / c
    B = [x * s**i for i, x in enumerate(_fraction_shift(A.coeffs, a / c))]
    B = [x * c**i for i, x in enumerate(B[::-1])]
    return fraction_poly(_fraction_shift(B, d / c))


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


# psi_1 .. psi_13: psi_k is the least odd composite that is a strong
# probable prime to each of the first k prime bases (OEIS A014233).
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
_REFERENCE_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def reference_is_probable_prime(n: int) -> bool:
    """is_probable_prime as it was before it graded its bases by psi_k:
    Miller-Rabin with all 13 prime bases up to 41 whatever n is, and from
    psi_13 on the strong Lucas test as well.  The differential tests compare
    is_probable_prime, the checker's own test and factor() against it."""
    if n < 2:
        return False
    for p in _REFERENCE_MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _REFERENCE_MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < PSI[-1]:
        return True
    return math.isqrt(n) ** 2 != n and _strong_lucas(n)


def primality_draws() -> list[int]:
    """Inputs for the differential primality tests: psi_k - 2, psi_k and
    psi_k + 2 for every k; Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1)
    with no prime factor up to 41, which pass every Fermat test; and per band
    [psi_(k-1), psi_k) (psi_0 = 3), and above psi_13 up to 10^30, seeded
    draws of three kinds: odd numbers, the next prime above one, and products
    of two primes, one of them below the square root of the band's end."""
    rng = random.Random(2047)

    def next_prime(m: int) -> int:
        m |= 1
        while not reference_is_probable_prime(m):
            m += 2
        return m

    draws = [psi + e for psi in PSI for e in (-2, 0, 2)]
    for k in range(7, 400):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(map(reference_is_probable_prime, factors)):
            draws.append(math.prod(factors))
    ends = (3,) + PSI + (10**30,)
    for lo, hi in zip(ends, ends[1:]):
        if lo == hi:
            continue
        for _ in range(40):
            draws.append(rng.randrange(lo, hi) | 1)
        for _ in range(10):
            draws.append(next_prime(rng.randrange(lo, hi)))
            p = next_prime(rng.randrange(2, math.isqrt(hi)))
            draws.append(p * next_prime(rng.randrange(max(2, lo // p), hi // p)))
    return draws


def reference_factor(n: int, *, rho_budget: int = DEFAULT_RHO_BUDGET) -> Factorization:
    """factor() as it was before trial division moved to blocks of sieved
    primes: division by 2 and every odd number up to the bound, then the
    rho stage above.  The differential tests compare factor() against it."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    found: dict[int, int] = {}

    d = 2
    while d <= TRIAL_BOUND and d * d <= n:
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
                if reference_is_probable_prime(m):
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
        if math.gcd(v0 - vn, n) == 1:
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


def reference_candidate_primes(A: FormalPoly, *, rho_budget: int = DEFAULT_RHO_BUDGET) -> CandidatePrimes:
    """candidate_primes as it was before it read the endpoint ratios from two
    Horner evaluations: it builds U(A) and L(A) in full and reads the ratio
    of each one's constant and leading coefficients.  The differential tests
    compare candidate_primes against it."""
    n = A.formal_degree
    primes: set[int] = set()
    complete = True

    def absorb(x: int) -> None:
        nonlocal complete
        if abs(x) <= 1:
            return
        fz = factor(x, rho_budget=rho_budget)
        primes.update(fz.primes)
        complete = complete and fz.complete

    if n >= 2:
        absorb(n)
    if n < 1 or A.coeffs[0] == 0 or A.coeffs[n] == 0:
        return CandidatePrimes(frozenset(primes), False)
    for _, B in (upper_transform(A), lower_transform(A)):
        b0, bn = B.coeffs[0], B.coeffs[-1]
        if b0 == 0 or bn == 0:
            continue
        ratio = b0 / bn
        absorb(ratio.numerator)
        absorb(ratio.denominator)
    return CandidatePrimes(frozenset(primes), complete)


_PRIMES_BELOW_4096 = [p for p in range(2, 4096) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def upper_ratio_key(A: FormalPoly) -> int:
    """|n num den|, num/den the reduced endpoint ratio b_0/b_n of U(A) =
    A(x - a_(n-1)/(n a_n)), built by FormalPoly.taylor_shift (so it does not
    go through upper_transform, which a test may replace); n alone when a_0
    or a_n is 0 (degenerate) or b_0 = 0.  By the orbit lemma and (D1), every
    prime a search can hit at divides it."""
    n, cs = A.formal_degree, A.coeffs
    if n < 1 or cs[0] == 0 or cs[n] == 0:
        return max(n, 1)
    b = A.taylor_shift(-cs[n - 1] / (n * cs[n])).coeffs
    ratio = b[0] / b[n] if b[0] else Fraction(1)
    return abs(n * ratio.numerator * ratio.denominator)


def walked_only(cert: Certificate) -> Certificate:
    """cert without its audit entries at the primes that divide neither n nor
    U(A)'s endpoint ratio (upper_ratio_key): what the search, which skips
    those primes, reports where a search over all candidate primes gave cert."""
    key = upper_ratio_key(cert.input)
    audit = tuple(e for e in cert.audit if key % e.prime == 0)
    return Certificate(cert.input, cert.verdict, cert.prime, cert.stage, cert.transform, cert.witness,
                       cert.report, audit, cert.candidate_primes_complete)


def reference_ratio_values(A: FormalPoly) -> tuple[list[int], list[int], bool, int]:
    """certify's band 1 and tails (_bands of _ratio_values' values), whether A
    is degenerate, and upper_ratio_key(A), by brute force: the values are n
    and the reduced endpoint ratios of U(A) and L(A) built in full, as
    reference_candidate_primes reads them, and each nonzero |value| is
    divided by every prime below 4096.
    The differential tests compare _ratio_values and _bands against it."""
    n = A.formal_degree
    degenerate = n < 1 or A.coeffs[0] == 0 or A.coeffs[n] == 0
    values = [n]
    if not degenerate:
        for _, B in (upper_transform(A), lower_transform(A)):
            b0, bn = B.coeffs[0], B.coeffs[-1]
            if b0 != 0 and bn != 0:
                ratio = b0 / bn
                values += [ratio.numerator, ratio.denominator]
    band1, tails = set(), set()
    for x in values:
        x = abs(x)
        if x == 0:
            continue
        for p in _PRIMES_BELOW_4096:
            while x % p == 0:
                band1.add(p)
                x //= p
        if x > 1:
            tails.add(x)
    return sorted(band1), sorted(tails), degenerate, upper_ratio_key(A)


def endpoints_pass(b0: Fraction, bn: Fraction, vp: PAdic, n: int) -> bool:
    """(D0) and (D1) at vp for a degree-n polynomial with endpoint
    coefficients b0 and bn, read from the Fractions: the stage-4 gate as it
    was before it ran on integers."""
    return b0 != 0 and bn != 0 and math.gcd(rational_val(vp, b0) - rational_val(vp, bn), n) == 1


_REFERENCE_GRID = default_t_grid()


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
    upper_pair = upper_transform(A)
    lower_pair = lower_transform(A) if A.coeffs[0] != 0 else None
    grid: list[tuple[Fraction, Fraction, Fraction, Fraction]] | None = None
    members: dict[int, tuple[Mat2, FormalPoly]] = {}
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
            dA = derivative(A)
            for t in _REFERENCE_GRID:
                dt, at = dA.eval(t), A.eval(t)
                if dt == 0 or at == 0:  # phi(t) undefined, or a singular member
                    members_skipped += 1
                    continue
                f = t - n * at / dt
                grid.append((t, f, at, A.eval(f)))
        for i, (t, f, at, af) in enumerate(grid):
            if not endpoints_pass(af, at, vp, n):
                continue
            pair = members.get(i)
            if pair is None:
                m = mat(t, f, 1, 1)
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


def reference_gcd_search(A: FormalPoly) -> tuple[tuple, bool]:
    """The search over the primes of n, g_0 = gcd(b_0 .. b_(n-1)) and
    g_n = gcd(b_1 .. b_n), b = U(A).nums (the gcd lemma in the certify_search
    docstring): in ascending order it tests A at each prime, and U(A) when p
    does not divide n.  Returns the core answer (verdict, prime, stage,
    transform, witness) and whether every factoring was complete."""
    n = A.formal_degree
    m, U = upper_transform(A)
    b = U.nums
    found = [factor(x) for x in (n, math.gcd(*b[:-1]), math.gcd(*b[1:])) if x > 1]
    complete = all(fz.complete for fz in found)
    for p in sorted({p for fz in found for p in fz.primes}):
        vp = padic(p)
        if is_ed(A, vp).verdict:
            return (Verdict.IRREDUCIBLE, p, 1, Mat2(1, 0, 0, 1), A), complete
        if n % p and is_ed(U, vp).verdict:
            return (Verdict.IRREDUCIBLE, p, 2, m, U), complete
    return (Verdict.INCONCLUSIVE, None, None, None, None), complete


def reference_eager_search(A: FormalPoly, config: SearchConfig | None = None) -> Certificate:
    """certify_search as it was before it walked the primes below 4096 first:
    it calls candidate_primes, factoring every value in full, and only then
    walks all of its primes in ascending order with stages 1, 2 and 4.  The
    differential tests compare certify_search against it."""
    config = config or SearchConfig()
    n = A.formal_degree
    if A.actual_degree != n:
        raise ValueError("certification requires actual degree equal to the formal degree")
    if n < 2:
        raise ValueError("certification requires degree >= 2")
    cand = candidate_primes(A, rho_budget=config.rho_budget)
    audit: list[AuditEntry] = []
    upper_pair = grid = None
    members: dict[int, FormalPoly] = {}
    members_skipped = 0

    def success(vp, stage, transform, witness, report):
        return Certificate(
            A, Verdict.IRREDUCIBLE, vp.p, stage, transform, witness, report, tuple(audit), cand.complete
        )

    for p in sorted(cand.primes):
        vp = PAdic(p)
        report = is_ed(A, vp)
        if report.verdict:
            return success(vp, 1, Mat2(1, 0, 0, 1), A, report)
        audit.append(AuditEntry(p, 1, _failure_reason(report)))
        if n % p == 0:
            reason = f"residue characteristic {p} divides the degree {n}; stages 2 and 4 skipped"
            audit.append(AuditEntry(p, 0, reason))
            continue
        if upper_pair is None:
            upper_pair = upper_transform(A)
        m, upper = upper_pair
        report = is_ed(upper, vp)
        if report.verdict:
            return success(vp, 2, m, upper, report)
        audit.append(AuditEntry(p, 2, _failure_reason(report)))
        if grid is None:
            grid, members_skipped = _family_grid(A)
        for i, (t, P, Q, F, FP) in enumerate(grid):
            if not _family_gate(vp, n, F, FP):
                continue
            member = members.get(i)
            if member is None:
                member = members[i] = _family_member(A, t, P, Q)
            report = is_ed(member, vp)
            if report.verdict:
                a, b = t.numerator, t.denominator
                m = Mat2(a * Q, b * P, b * Q, b * Q, b * Q)
                return success(vp, 4, m, act(A, m), report)
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


def reference_parse_rational(text: str) -> Fraction:
    """parse_rational as it was before the regular grammar: Fraction(str),
    which also reads decimals, exponents, underscores and non-ASCII digits.
    The differential parser test compares parse_rational against it."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None


def reference_parse_poly(text: str, formal_degree: int | None = None) -> FormalPoly:
    """parse_poly as it was before the regular grammar: a character scanner
    that reads any Unicode digit.  The differential parser test compares
    parse_poly against it.

    Parse the polynomial grammar; like terms are combined.

    The formal degree is the largest exponent carrying a nonzero coefficient
    unless overridden upward; an override below the actual degree is an error,
    and so is an exponent or override above MAX_DEGREE.
    """
    if formal_degree is not None and formal_degree > MAX_DEGREE:
        raise ValueError(f"formal degree {formal_degree} exceeds the limit {MAX_DEGREE}")
    s = text
    i = 0

    def skip_ws():
        nonlocal i
        while i < len(s) and s[i].isspace():
            i += 1

    def fail(message: str):
        raise PolyParseError(message, i)

    def read_int() -> int:
        nonlocal i
        start = i
        while i < len(s) and s[i].isdigit():
            i += 1
        if i == start:
            fail("expected an integer")
        return int(s[start:i])

    terms: dict[int, Fraction] = {}
    skip_ws()
    if i >= len(s):
        fail("empty polynomial")
    first = True
    while True:
        skip_ws()
        if i >= len(s):
            break
        sign = 1
        if s[i] == "+":
            i += 1
            skip_ws()
        elif s[i] == "-":
            sign = -1
            i += 1
            skip_ws()
        elif not first:
            fail("expected '+' or '-' between terms")
        coeff = None
        if i < len(s) and s[i].isdigit():
            num = read_int()
            skip_ws()
            if i < len(s) and s[i] == "/":
                i += 1
                skip_ws()
                den_at = i
                den = read_int()
                if den == 0:
                    i = den_at
                    fail("zero denominator")
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            skip_ws()
            if i < len(s) and s[i] == "*":
                i += 1
                skip_ws()
        exp = None
        if i < len(s) and s[i] in "xX":
            i += 1
            skip_ws()
            if i < len(s) and s[i] == "^":
                i += 1
                skip_ws()
                exp_at = i
                exp = read_int()
                if exp > MAX_DEGREE:
                    i = exp_at
                    fail(f"exponent {exp} exceeds the limit {MAX_DEGREE}")
            else:
                exp = 1
        if coeff is None and exp is None:
            fail("expected a coefficient or 'x'")
        exp = exp or 0
        coeff = Fraction(1) if coeff is None else coeff
        terms[exp] = terms.get(exp, Fraction(0)) + sign * coeff
        first = False

    actual = max((e for e, c in terms.items() if c != 0), default=0)
    n = actual
    if formal_degree is not None:
        if formal_degree < actual:
            raise ValueError(
                f"formal degree override {formal_degree} is below the actual degree {actual}"
            )
        n = formal_degree
    return fraction_poly([terms.get(k, Fraction(0)) for k in range(n + 1)])


def reference_acts_to(
    D: int, alpha: list[int], g: list[int], lam: int, Dw: int, omega: list[int]
) -> bool:
    """certificate._acts_to as it was for every matrix before the triangular
    identity: D lam^n Omega(k) = Dw F(ak+b, ck+d) at the n+1 points
    k = 0..n, both sides by Horner's rule.  The differential test of the
    checker's action compares _acts_to against it."""
    n = len(alpha) - 1
    if len(omega) != n + 1:
        return False
    a, b, c, d = g
    scale = D * lam**n
    for k in range(n + 1):
        value = 0
        for w in reversed(omega):
            value = value * k + w
        X, Y = a * k + b, c * k + d
        form, Ypow = 0, 1
        for ai in reversed(alpha):
            form = form * X + ai * Ypow
            Ypow *= Y
        if scale * value != Dw * form:
            return False
    return True


def reference_validate_certificate_json(data: object) -> tuple[bool, str]:
    """validate_certificate_json as it was before the integer checker, on
    the search's own act and is_ed.  The mutation fuzz compares
    validate_certificate_json against it.

    Re-derive everything an irreducibility certificate claims.

    Re-parses the input, recomputes act(input, transform), compares it to the
    serialized witness, and re-runs the Eisenstein-Dumas report, comparing
    bit for bit.  Inconclusive certificates only get a shape check.  Total:
    any malformed JSON value gives (False, reason), never an exception.
    """
    if not isinstance(data, dict):
        return False, "malformed certificate: not a JSON object"
    try:
        formal_degree = data["formal_degree"]
        if not isinstance(formal_degree, int) or isinstance(formal_degree, bool):
            raise TypeError(f"formal_degree must be an integer, got {formal_degree!r}")
        A = parse_poly(data["input"], formal_degree)
        verdict = data["verdict"]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    if verdict == "inconclusive":
        for key in ("prime", "transform", "witness_coeffs", "report"):
            if data.get(key) is not None:
                return False, f"inconclusive certificate must have null {key}"
        return True, "inconclusive certificate is well-formed (no claim to check)"
    if verdict != "irreducible":
        return False, f"unknown verdict {verdict!r}"
    try:
        prime = data["prime"]
        if not (isinstance(prime, str) and prime.isascii() and prime.isdigit()):
            raise ValueError(f"prime must be a string of decimal digits, got {prime!r}")
        vp = PAdic(int(prime))
        transform, coeffs = data["transform"], data["witness_coeffs"]
        if not (isinstance(transform, list) and isinstance(coeffs, list)):
            raise TypeError("transform and witness_coeffs must be lists of strings")
        g = mat(*map(parse_rational, transform))
        witness = fraction_poly(list(map(parse_rational, coeffs)))
        report = data["report"]
        if not isinstance(report, dict):
            raise TypeError("report must be a JSON object")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    if A.actual_degree != A.formal_degree:
        return False, "input's actual degree is below its formal degree"
    recomputed = act(A, g)
    if recomputed != witness:
        return False, "witness does not equal act(input, transform)"
    rep = is_ed(witness, vp)
    stored = (
        report.get("d0"),
        report.get("d1"),
        report.get("d2"),
        report.get("gcd_value"),
        report.get("failing_index"),
    )
    fresh = (rep.d0, rep.d1, rep.d2, rep.d1_gcd, rep.d2_failing_index)
    if stored != fresh:
        return False, f"stored report {stored} disagrees with recomputed {fresh}"
    if not rep.verdict:
        return False, "witness is not an Eisenstein-Dumas polynomial at the stated prime"
    return True, f"witness is Eisenstein-Dumas at p = {vp.p}"
