"""Exact integer and rational arithmetic substrate.

Python integers are already arbitrary-precision sign/magnitude values, and
``fractions.Fraction`` is an exact rational that normalizes eagerly on
construction (gcd-reduced, positive denominator, zero is 0/1).  This module
re-exports them under the names the rest of the package uses and adds the
one piece the standard library lacks: integer factorization with an explicit
effort budget.

Factorization strategy: trial division up to a bound, then Brent's variant
of Pollard's rho on the remaining cofactor, with Miller-Rabin classifying
intermediate cofactors as prime.  If a composite cofactor survives the
iteration budget, the partial result is returned flagged incomplete rather
than hanging.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

# Deterministic Miller-Rabin witness set: the first 13 primes prove primality
# for all n < 3.3 * 10**24 (Sorenson & Webster; the first 12 stop at
# 318665857834031151167461); beyond that the same bases give a strong
# probable-prime test, which is ample at the scales factor() targets.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

DEFAULT_TRIAL_BOUND = 10**6
DEFAULT_RHO_BUDGET = 500_000


def gcd(a: int, b: int) -> int:
    """Nonnegative greatest common divisor; gcd(0, 0) == 0."""
    return math.gcd(a, b)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """Try to split composite odd n; returns (divisor or 0, iterations used)."""
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
            # Backtrack one-by-one to recover the divisor lost in batching.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, used
        # g == n with backtrack failure: retry with a fresh (y, c).
    return 0, used


@dataclass(frozen=True)
class Factorization:
    """Multiset of (prime, exponent) pairs plus an unfactored cofactor.

    ``cofactor`` is 1 when the factorization is complete; otherwise it is a
    composite remainder the effort budget could not split.  In either case
    the product of all prime powers times ``cofactor`` equals |n|.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def product(self) -> int:
        out = self.cofactor
        for p, e in self.factors:
            out *= p**e
        return out

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def factor(
    n: int,
    *,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> Factorization:
    """Factor |n| into primes under a bounded effort budget.

    Raises ValueError for n == 0.  The randomized stage is seeded from n,
    so results are reproducible run to run.
    """
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
            # Trial division exhausted all candidate divisors: n is prime.
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
                g, used = _brent_rho(m, rng, budget)
                budget -= used
                if g == 0:
                    leftover *= m
                    continue
                stack.append(g)
                stack.append(m // g)

    return Factorization(tuple(sorted(found.items())), leftover)
