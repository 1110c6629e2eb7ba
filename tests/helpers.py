"""Shared randomized generators for the property suites.

Everything takes an explicit random.Random so each test pins its own seed;
the suites must be reproducible run to run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from edcert import Factorization, FormalPoly, Mat2, PAdic
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
