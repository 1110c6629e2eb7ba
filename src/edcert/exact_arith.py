"""Exact integer and rational arithmetic substrate.

Python integers are already arbitrary-precision sign/magnitude values, and
``fractions.Fraction`` is an exact rational that normalizes eagerly on
construction (gcd-reduced, positive denominator, zero is 0/1); the package
uses both as they are.  This module adds the one piece the standard library
lacks: integer factorization with an explicit effort budget.

Factorization strategy: trial division up to a bound, then Brent's variant
of Pollard's rho on the remaining cofactor, with Miller-Rabin classifying
intermediate cofactors as prime.  If a composite cofactor survives the
iteration budget, the partial result is returned flagged incomplete rather
than hanging.

Trial division works on blocks of primes: a module-level table holds, for
consecutive ranges [lo, hi) about 4096 integers wide, the product of the
primes in the range.  One gcd g with that product tells which of those primes
divide n, so a range without a factor costs one gcd instead of a division per
odd number, and a range with one is divided only while d^2 <= g.  The table
is built by a segmented sieve one range at a time, only as far as some call's
trial division has reached; nothing is built at import, and only the products
are kept, with the 564 primes of the first range, [2, 4096).  A g from that
range is split over those primes rather than over every integer up to
sqrt(g), and _first_range_primes gives them for any integer from one gcd:
the search's band 1 (see certify_search).  A cofactor that has no prime
factor below its square root (known after a range), or that Miller-Rabin
proves prime (below psi_13, about 3.3e24), ends the walk early.

Primality: psi_k, the least odd composite that passes strong probable-prime
tests to all of the first k prime bases (OEIS A014233), is

    k       psi_k                          bases run for psi_(k-1) <= n < psi_k
    1       2047                           2
    2       1373653                        2, 3
    3       25326001                       2 .. 5
    4       3215031751                     2 .. 7
    5       2152302898747                  2 .. 11
    6       3474749660383                  2 .. 13
    7, 8    341550071728321                2 .. 17
    9..11   3825123056546413051            2 .. 23
    12      318665857834031151167461       2 .. 37
    13      3317044064679887385961981      2 .. 41

(Pomerance, Selfridge & Wagstaff, Math. Comp. 1980, and Jaeschke, Math. Comp.
1993, for k <= 8; Jiang & Deng, Math. Comp. 2014, for k = 9..11; Sorenson &
Webster, Math. Comp. 2017, for k = 12, 13.)  So below psi_13 the first k
bases, k the least with n < psi_k, prove primality, and is_probable_prime
runs only those; from psi_13 on it runs all 13 and a strong Lucas test.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random

from ._record import Record, _set

# The first 13 prime bases and psi_1 .. psi_13 (see the module docstring):
# Miller-Rabin with _MR_BASES[:k] is a proof for n < _PSI[k - 1].  psi_13
# itself passes all 13 bases, so from there on a strong Lucas test is added,
# which makes the test BPSW.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
_MR_PROVEN_BELOW = _PSI[-1]

TRIAL_BOUND = 10**6
# factor ends a number below this complete by trial division alone
TRIAL_SQUARE = (TRIAL_BOUND + 1) ** 2
DEFAULT_RHO_BUDGET = 500_000

_SEGMENT_WIDTH = 4096
# (lo, hi, product of the primes in [lo, hi)) for consecutive ranges from 2.
# Extended without a lock: two threads extending it at once can append a
# range twice, which factor() walks through again without effect.
_SEGMENTS: list[tuple[int, int, int]] = []
# The primes of the first range, [2, _SEGMENT_WIDTH), kept when it is sieved.
_FIRST_PRIMES: list[int] = []


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _halve(x: int, n: int) -> int:
    """x / 2 mod odd n."""
    x %= n
    return (x + n if x % 2 else x) // 2


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 that is not a square,
    with Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    Jacobi symbol (D/n) = -1, P = 1, Q = (1 - D)/4.  With n + 1 = d 2^s, n
    passes if U_d = 0 or V_(d 2^r) = 0 mod n for some 0 <= r < s."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # D shares a factor with n, and |D| is far below n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n from k = 1, along the bits of d (P = 1):
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k, U_(k+1) = (U_k + V_k) / 2 and
    # V_(k+1) = (D U_k + V_k) / 2.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = _halve(U + V, n), _halve(D * U + V, n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test with the first k prime bases, k the least
    with n < psi_k (the table in the module docstring), which is a proof
    below psi_13 ~ 3.3e24.  From psi_13 on all 13 bases run and a strong
    Lucas test is added (BPSW: Baillie & Wagstaff, Math. Comp. 1980), with no
    known counterexample.  n is an integer (bools count as ints); anything
    else raises TypeError."""
    n = operator.index(n)
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
    for a in _MR_BASES[: bisect.bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _MR_PROVEN_BELOW:
        return True
    return math.isqrt(n) ** 2 != n and _strong_lucas(n)


def _primes_below(limit: int) -> list[int]:
    """The primes p < limit (limit >= 2), by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return list(itertools.compress(range(limit), sieve))


def _extend_segments() -> None:
    """Append the next range to the table, sieving it with the primes up to
    the square root of its end."""
    lo = _SEGMENTS[-1][1] if _SEGMENTS else 2
    hi = (lo // _SEGMENT_WIDTH + 1) * _SEGMENT_WIDTH
    sieve = bytearray([1]) * (hi - lo)
    for p in _primes_below(math.isqrt(hi - 1) + 1):
        start = max(p * p, -(-lo // p) * p)
        sieve[start - lo :: p] = bytes(len(range(start, hi, p)))
    primes = list(itertools.compress(range(lo, hi), sieve))
    if lo == 2:
        _FIRST_PRIMES[:] = primes
    _SEGMENTS.append((lo, hi, math.prod(primes)))


def _split(g: int, candidates, top: int) -> list[int]:
    """The primes below top of g = gcd(n, a range's product), ascending;
    candidates run over the range ascending, every prime of it among them
    (see factor)."""
    primes = []
    for d in candidates:
        if d * d > g:
            break  # g is 1 or one prime
        if g % d == 0:
            g //= d
            primes.append(d)
    if 1 < g < top:
        primes.append(g)
    return primes


def _strip(n: int, primes, found: dict[int, int]) -> int:
    """n without the given primes, whose exponents are added to found."""
    for p in primes:
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    return n


def _first_range_primes(n: int) -> list[int]:
    """The primes below _SEGMENT_WIDTH that divide n != 0, ascending, from one
    gcd with the first range's product."""
    if not _SEGMENTS:
        _extend_segments()
    return _split(math.gcd(n, _SEGMENTS[0][2]), _FIRST_PRIMES, _SEGMENT_WIDTH)


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
                    q = q * (x - y) % n
                used += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # Backtrack one-by-one to recover the divisor lost in batching.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g, used
        # g == n with backtrack failure: retry with a fresh (y, c).
    return 0, used


class Factorization(Record):
    """Multiset of (prime, exponent) pairs plus an unfactored cofactor.

    ``cofactor`` is 1 when the factorization is complete; otherwise it is a
    composite remainder the effort budget could not split.  In either case
    the product of all prime powers times ``cofactor`` equals |n|.
    """

    __slots__ = ("factors", "cofactor")

    def __init__(self, factors: tuple[tuple[int, int], ...], cofactor: int = 1):
        _set(self, "factors", factors)
        _set(self, "cofactor", cofactor)

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factor(n: int, *, rho_budget: int = DEFAULT_RHO_BUDGET) -> Factorization:
    """Factor |n| into primes under a bounded effort budget.

    Trial division walks the segment table (see the module docstring) up to
    TRIAL_BOUND, extending it when it runs out, and stops at the first range
    starting above the square root of what is left.  In a range [lo, hi), let
    top = min(hi, TRIAL_BOUND + 1).  g = gcd(n, product of the range's primes)
    is squarefree, and its primes are stripped from n in ascending order while
    d^2 <= g, d running over the range's primes in the first range and over
    every integer of [lo, top) in the others: a composite d never divides g,
    as g's primes lie in the range and those below d are already stripped
    from it.  What is left of g is then 1, one prime, or a product of
    primes above the bound; a single prime below top is stripped at once.  No
    prime above TRIAL_BOUND is stripped, even where the last range holds it:
    the cofactor that rho starts from, and the seed of its generator, are then
    those of division by every number up to the bound.  After a range every
    prime below top is stripped, so a cofactor below top^2 is 1 or a prime,
    and the walk ends there.  A cofactor proven prime after the first range,
    or after one that divided n, ends it too, with the result the full walk
    would give: no later range divides it, and it is then recorded as a prime
    either way.  Raises ValueError for n == 0.
    The randomized stage is seeded from the cofactor trial division leaves,
    so results are reproducible run to run.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    found: dict[int, int] = {}

    lo = 2
    for i in itertools.count():
        if lo > TRIAL_BOUND or lo * lo > n:
            break
        if i == len(_SEGMENTS):
            _extend_segments()
        lo, hi, product = _SEGMENTS[i]
        top = min(hi, TRIAL_BOUND + 1)
        g = math.gcd(n, product)
        check_prime = i == 0 or g > 1
        if g > 1:
            n = _strip(n, _split(g, _FIRST_PRIMES if i == 0 else range(lo, top), top), found)
        lo = hi
        if n < top * top:
            break  # no prime below top divides n, so n is 1 or a prime
        if check_prime and n < _MR_PROVEN_BELOW and is_probable_prime(n):
            found[n] = 1
            n = 1

    leftover = 1
    if n > 1:
        if n < TRIAL_SQUARE:
            # n has no prime factor up to min(bound, sqrt(n)), and with
            # n < (bound + 1)^2 that minimum is sqrt(n): n is prime.
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
