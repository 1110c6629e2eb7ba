"""Irreducibility certification by searching the Möbius orbit for a witness.

An Eisenstein-Dumas polynomial anywhere in the orbit of A under nonsingular
2x2 matrices certifies that A is irreducible, because irreducibility is
invariant under the action.  Two canonical transforms make the search for
such a witness finite in practice when the residue characteristic p does
not divide the degree n:

  * the upper transform U(A) = A(x - a_{n-1}/(n a_n)), which kills the
    x^(n-1) coefficient: if any matrix with a zero entry (triangular, or
    triangular times the coordinate swap) produces an Eisenstein-Dumas
    polynomial, then U(A) or L(A) already is one;
  * the lower transform L(A) = (1 - a_1 x/(n a_0))^n A(x/(1 - a_1 x/(n a_0))),
    its mirror image under coefficient reversal, killing the x^1 coefficient;
  * for fully dense witness matrices, a one-parameter family
    A(x)[[t, phi(t)], [1, 1]] with phi(t) = t - n A(t)/A'(t): if the orbit
    contains an Eisenstein-Dumas polynomial at all, some member of this
    family (or U(A) or L(A)) is one.

Only finitely many primes can work: any witness prime must divide the
degree n, or show up in the constant/leading coefficient ratio of U(A) or
of L(A).  The search enumerates those primes in ascending order and, per
prime, checks A itself, U(A), L(A), then a bounded grid of t values; the
first hit is returned as a machine-checkable certificate.  A failed search
is reported inconclusive, never as "reducible": the criterion is one-sided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .exact_arith import (
    DEFAULT_RHO_BUDGET,
    DEFAULT_TRIAL_BOUND,
    Rational,
    factor,
)
from .moebius import Mat2, act
from .newton_ed import EDReport, is_ed
from .poly import FormalPoly, _coerce
from .valuation import PAdic


def upper_transform(A: FormalPoly) -> tuple[Mat2, FormalPoly]:
    """Shear killing the x^(n-1) coefficient: (matrix, A(x - a_{n-1}/(n a_n))).

    Requires the coefficient at the formal degree to be nonzero.
    """
    n = A.formal_degree
    if n < 1:
        raise ValueError("upper transform requires formal degree >= 1")
    an = A.coeffs[n]
    if an == 0:
        raise ValueError("upper transform undefined: coefficient at the formal degree is zero")
    m = Mat2.shear(-A.coeffs[n - 1] / (n * an))
    return m, act(A, m)


def lower_transform(A: FormalPoly) -> tuple[Mat2, FormalPoly]:
    """Lower shear killing the x^1 coefficient; mirror of upper_transform.

    Satisfies L(A) = reverse(U(reverse(A))) and requires a_0 != 0.
    """
    n = A.formal_degree
    if n < 1:
        raise ValueError("lower transform requires formal degree >= 1")
    a0 = A.coeffs[0]
    if a0 == 0:
        raise ValueError("lower transform undefined: constant coefficient is zero")
    m = Mat2(1, 0, -A.coeffs[1] / (n * a0), 1)
    return m, act(A, m)


def phi(A: FormalPoly, t: Rational | int) -> Fraction:
    """The family parameter map t - n * A(t) / A'(t); needs A'(t) != 0."""
    t = _coerce(t)
    deriv = A.derivative().eval(t)
    if deriv == 0:
        raise ValueError("phi undefined: A'(t) = 0")
    return t - A.formal_degree * A.eval(t) / deriv


def one_param_member(A: FormalPoly, t: Rational | int) -> tuple[Mat2, FormalPoly]:
    """Member [[t, phi(t)], [1, 1]] of the one-parameter family, applied to A.

    The determinant is t - phi(t) = n A(t)/A'(t), so A'(t) = 0 is rejected
    by phi and A(t) = 0 by Mat2 as a singular matrix, both with ValueError.
    """
    m = Mat2(t, phi(A, t), 1, 1)
    return m, act(A, m)


@dataclass(frozen=True)
class CandidatePrimes:
    """Primes that could possibly admit a witness, plus a completeness flag.

    ``upper`` and ``lower`` are the (matrix, polynomial) pairs of U(A) and
    L(A) the ratios were read from, None where they were not built; they let
    the search reuse them and take no part in equality.
    """

    primes: frozenset[int]
    complete: bool
    upper: tuple[Mat2, FormalPoly] | None = field(default=None, compare=False)
    lower: tuple[Mat2, FormalPoly] | None = field(default=None, compare=False)


def candidate_primes(
    A: FormalPoly,
    *,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> CandidatePrimes:
    """All primes that can carry an Eisenstein-Dumas witness reachable by the
    canonical transforms: divisors of n, plus primes at which the ratio
    b_0/b_n of U(A)'s endpoint coefficients (or c_0/c_n of L(A)'s) has
    nonzero valuation, i.e. primes dividing its numerator or denominator.

    With a zero endpoint coefficient only the divisors of n are returned and
    the flag is dropped to False (degenerate case).  The flag is also False
    whenever a factorization ran out of budget.
    """
    n = A.formal_degree
    primes: set[int] = set()
    complete = True

    def absorb(x: int) -> None:
        nonlocal complete
        if abs(x) <= 1:
            return
        fz = factor(x, trial_bound=trial_bound, rho_budget=rho_budget)
        primes.update(fz.primes)
        complete = complete and fz.complete

    degenerate = n < 1 or A.coeffs[0] == 0 or A.coeffs[n] == 0
    if n >= 2:
        absorb(n)
    if degenerate:
        return CandidatePrimes(frozenset(primes), False)

    pairs = upper_transform(A), lower_transform(A)
    for _, B in pairs:
        b0, bn = B.coeffs[0], B.coeffs[-1]
        if b0 == 0 or bn == 0:
            continue  # that transform cannot satisfy (D0) at any prime
        ratio = b0 / bn
        absorb(ratio.numerator)
        absorb(ratio.denominator)
    return CandidatePrimes(frozenset(primes), complete, *pairs)


def default_t_grid(height: int = 8) -> tuple[Fraction, ...]:
    """All reduced rationals a/b with |a| <= height, 1 <= b <= height,
    ordered by height max(|a|, b) and then by value."""
    grid = {Fraction(a, b) for b in range(1, height + 1) for a in range(-height, height + 1)}
    return tuple(sorted(grid, key=lambda q: (max(abs(q.numerator), q.denominator), q)))


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for certify_search; the defaults reproduce the documented search."""

    t_height: int = 8
    extra_primes: tuple[int, ...] = ()
    trial_bound: int = DEFAULT_TRIAL_BOUND
    rho_budget: int = DEFAULT_RHO_BUDGET


class Verdict(enum.Enum):
    IRREDUCIBLE = "irreducible"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AuditEntry:
    """One failure record: which prime, which stage, and why.

    Stage 0 carries prime-level notes (e.g. why later stages were skipped).
    """

    prime: int
    stage: int
    reason: str


@dataclass(frozen=True)
class Certificate:
    """Search outcome.  For an irreducible verdict the witness fields are the
    machine-checkable proof: witness = act(input, transform) is
    Eisenstein-Dumas at the stated prime, hence the input is irreducible."""

    input: FormalPoly
    verdict: Verdict
    prime: int | None = None
    stage: int | None = None
    transform: Mat2 | None = None
    witness: FormalPoly | None = None
    report: EDReport | None = None
    audit: tuple[AuditEntry, ...] = ()
    candidate_primes_complete: bool = True

    @property
    def irreducible(self) -> bool:
        return self.verdict is Verdict.IRREDUCIBLE


STAGE_NAMES = {
    1: "input polynomial",
    2: "upper transform",
    3: "lower transform",
    4: "one-parameter family",
}


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
    """Deterministic certificate search: primes ascending, stages 1-4, t in
    grid order; the first Eisenstein-Dumas hit wins.

    Stage 1 tests A itself at every candidate prime (no hypothesis on the
    residue characteristic is needed there); stages 2-4 require p to not
    divide n and test U(A), L(A), and the one-parameter family on the grid.
    The input must have actual degree equal to its formal degree (n >= 2),
    since the certificate speaks about irreducibility of A itself.

    Candidate primes could be evaluated concurrently and reconciled by the
    same (prime, stage, t) priority order; this implementation keeps the
    simple sequential form of that contract.
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

    cand = candidate_primes(A, trial_bound=config.trial_bound, rho_budget=config.rho_budget)
    primes = sorted(set(cand.primes) | set(config.extra_primes))
    valuations = [PAdic(p) for p in primes]  # validates extra primes up front
    audit: list[AuditEntry] = []

    # The transforms and family members do not depend on the prime.  With
    # a_0 = 0 candidate_primes builds neither transform, and L(A) is undefined.
    upper_pair = cand.upper or upper_transform(A)
    lower_pair = cand.lower
    members: list[tuple[Mat2, FormalPoly]] | None = None
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
            candidate_primes_complete=cand.complete,
        )

    for vp in valuations:
        p = vp.p
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

        if members is None:
            members = []
            for t in default_t_grid(config.t_height):
                try:
                    members.append(one_param_member(A, t))
                except ValueError:  # A'(t) = 0 or A(t) = 0
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
        input=A,
        verdict=Verdict.INCONCLUSIVE,
        audit=tuple(audit),
        candidate_primes_complete=cand.complete,
    )
