"""Brute-force irreducibility check over Q for small degrees.

Fully independent of the certification engine: no valuations, no polygons,
no matrix actions.  The input is cleared to its primitive integer form and
an exhaustive search for an integer factor of degree <= n/2 is run.  Any
such factor g takes, at each integer point k, a value g(k) dividing f(k);
since deg g <= 3 for the supported range n <= 6, enumerating divisor tuples
at the points 0, 1, -1(, 2) and solving for the coefficients covers every
possible integer factor.  Candidates are additionally capped by the loose
but valid coefficient bound 2^n * max|f_i| before trial division.

Deliberately correctness-over-speed: this is test support, not a
production factorizer, and it is not exported from the package.
"""

from __future__ import annotations

import math

from ._record import Record, _set
from .exact_arith import factor
from .poly import FormalPoly

MAX_ORACLE_DEGREE = 6


class OracleVerdict(Record):
    """Verdict plus, when reducible, a pair of integer factors whose product
    is exactly the primitive integer form of the input."""

    __slots__ = ("irreducible", "witness")

    def __init__(self, irreducible: bool, witness: tuple[FormalPoly, FormalPoly] | None = None):
        _set(self, "irreducible", irreducible)
        _set(self, "witness", witness)


def primitive_integer_form(A: FormalPoly) -> list[int]:
    """A.nums up to the actual degree with the content divided out; leading
    coefficient made positive."""
    if A.is_zero:
        raise ValueError("zero polynomial has no primitive form")
    ints = A.nums[: A.actual_degree + 1]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _divisors(m: int) -> list[int]:
    """Positive divisors of |m|, ascending."""
    fz = factor(m)
    if not fz.complete:
        raise ValueError(f"could not fully factor {m} while enumerating divisors")
    divs = [1]
    for p, e in fz.factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _eval_int(f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _divide_exact(f: list[int], g: list[int]) -> list[int] | None:
    """Quotient f/g when g divides f exactly with an integer quotient.

    Long division on integers: a quotient coefficient that is not an integer
    means the quotient is not integral, so the division stops there.  The
    candidates g are primitive, and by Gauss's lemma a primitive g dividing
    f in Q[x] leaves an integral quotient, so no factor is missed.
    """
    if len(g) > len(f):
        return None
    rem = list(f)
    lead = g[-1]
    q = [0] * (len(f) - len(g) + 1)
    for i in range(len(q) - 1, -1, -1):
        coeff, r = divmod(rem[i + len(g) - 1], lead)
        if r:
            return None
        q[i] = coeff
        if coeff:
            for j, gc in enumerate(g):
                rem[i + j] -= coeff * gc
    if any(rem):
        return None
    return q


def _content_is_one(g: list[int]) -> bool:
    c = 0
    for x in g:
        c = math.gcd(c, x)
    return c == 1


def _quadratic_factors(f: list[int], bound: int):
    """Yield primitive degree-2 integer candidates g with g(k) | f(k) at 0, 1, -1."""
    f0, f1, fm = _eval_int(f, 0), _eval_int(f, 1), _eval_int(f, -1)
    d1 = _divisors(f1)
    dm = _divisors(fm)
    for e0 in _divisors(f0):  # g(0) > 0 normalizes the overall sign
        for e1 in (x for d in d1 for x in (d, -d)):
            for em in (x for d in dm for x in (d, -d)):
                if (e1 - em) % 2 != 0:
                    continue
                g1 = (e1 - em) // 2
                g2 = (e1 + em) // 2 - e0
                if g2 == 0:
                    continue
                g = [e0, g1, g2]
                if max(abs(c) for c in g) > bound:
                    continue
                if _content_is_one(g):
                    yield g


def _cubic_factors(f: list[int], bound: int):
    """Yield primitive degree-3 integer candidates g with g(k) | f(k) at 0, 1, -1, 2."""
    f0, f1, fm, f2 = (_eval_int(f, x) for x in (0, 1, -1, 2))
    d1 = _divisors(f1)
    dm = _divisors(fm)
    d2 = _divisors(f2)
    for e0 in _divisors(f0):
        for e1 in (x for d in d1 for x in (d, -d)):
            for em in (x for d in dm for x in (d, -d)):
                if (e1 - em) % 2 != 0:
                    continue
                odd_sum = (e1 - em) // 2  # g1 + g3
                g2 = (e1 + em) // 2 - e0
                for e2 in (x for d in d2 for x in (d, -d)):
                    # g(2) = e0 + 2 g1 + 4 g2 + 8 g3 determines g1 given the rest
                    num = e0 + 4 * g2 + 8 * odd_sum - e2
                    if num % 6 != 0:
                        continue
                    g1 = num // 6
                    g3 = odd_sum - g1
                    if g3 == 0:
                        continue
                    g = [e0, g1, g2, g3]
                    if max(abs(c) for c in g) > bound:
                        continue
                    if _content_is_one(g):
                        yield g


def brute_irreducible(A: FormalPoly) -> OracleVerdict:
    """Exhaustive factor search on the primitive integer form of A.

    Requires 1 <= actual degree = formal degree <= 6.  Returns irreducible
    iff no integer factor of degree 1..n/2 exists; otherwise the witness
    pair multiplies back to the primitive form exactly.
    """
    n = A.formal_degree
    if A.is_zero:
        raise ValueError("the zero polynomial is not in the oracle's domain")
    if A.actual_degree != n:
        raise ValueError("oracle requires actual degree equal to formal degree")
    if n > MAX_ORACLE_DEGREE:
        raise ValueError(f"oracle supports degree <= {MAX_ORACLE_DEGREE}, got {n}")

    f = primitive_integer_form(A)
    if n == 1:
        return OracleVerdict(True)
    bound = 2**n * max(abs(c) for c in f)

    def witness(g: list[int], h: list[int]) -> OracleVerdict:
        return OracleVerdict(
            False,
            (FormalPoly.from_coeffs(g), FormalPoly.from_coeffs(h)),
        )

    # Degree-1 factors: a power of x, then the rational root test.
    if f[0] == 0:
        return witness([0, 1], f[1:])
    for w in _divisors(f[-1]):
        for u_abs in _divisors(f[0]):
            if math.gcd(u_abs, w) != 1:
                continue
            for u in (u_abs, -u_abs):
                # root u/w <-> factor w x - u
                if sum(c * u**i * w ** (n - i) for i, c in enumerate(f)) == 0:
                    h = _divide_exact(f, [-u, w])
                    assert h is not None
                    return witness([-u, w], h)

    search = [(_quadratic_factors, 2), (_cubic_factors, 3)]
    for gen, d in search:
        if d > n // 2:
            break
        for g in gen(f, bound):
            h = _divide_exact(f, g)
            if h is not None:
                return witness(g, h)
    return OracleVerdict(True)
