"""Newton polygons and the Eisenstein-Dumas irreducibility conditions.

For a nonzero polynomial A = sum a_i x^i and a valuation v, the Newton
polygon is the lower convex hull of the support points (i, v(a_i)) with
a_i != 0.  Dumas' theorem says the polygon of a product is the slope-sorted
concatenation of the factors' polygons; when a degree-n polynomial's polygon
is a single segment whose height drop is coprime to n, the polynomial is
irreducible.  Spelled out on coefficients, that is the Eisenstein-Dumas
criterion:

    (D0)  a_0 * a_n != 0,
    (D1)  gcd(v(a_0) - v(a_n), n) = 1,
    (D2)  n*v(a_i) >= (n-i)*v(a_0) + i*v(a_n)   for 0 <= i <= n,

with n the formal degree throughout.  Given (D0) and (D1), the bound (D2)
is equivalent to its strict form at the interior indices 1..n-1 (no interior
support point can lie on the segment); only the non-strict bound is
implemented, and the tests check it against the strict form.

On integer coefficients b_i, (D2) is a divisibility test, so is_ed values
only the two endpoints:

    (D2) at i  <=>  b_i = 0 or p^k_i | b_i,   k_i = ceil(((n-i) v(b_0) + i v(b_n)) / n).

Proof: n v(b_i) >= (n-i) v(b_0) + i v(b_n) says v(b_i) >= ((n-i) v(b_0) +
i v(b_n)) / n, and v(b_i) is an integer, so this is v(b_i) >= k_i, which
for b_i != 0 is p^k_i | b_i.  As i runs from 0 to n, k_i runs monotonically
from v(b_0) to v(b_n), so one power of p serves a whole run of indices.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record, _set
from .poly import FormalPoly
from .valuation import PAdic


class Segment(Record):
    """One side of a polygon: exact slope and horizontal length."""

    __slots__ = ("slope", "length")

    def __init__(self, slope: Fraction, length: int):
        _set(self, "slope", slope)
        _set(self, "length", length)


class NewtonPolygon(Record):
    """Lower convex hull of the support points of a polynomial.

    Vertex indices are strictly increasing from the smallest support index
    to the largest; segment slopes are strictly increasing left to right.
    """

    __slots__ = ("vertices", "segments")

    def __init__(self, vertices: tuple[tuple[int, int], ...], segments: tuple[Segment, ...]):
        _set(self, "vertices", vertices)
        _set(self, "segments", segments)

    def slope_lengths(self) -> dict[Fraction, int]:
        """Total horizontal length per slope (the slope multiset)."""
        out: dict[Fraction, int] = {}
        for s in self.segments:
            out[s.slope] = out.get(s.slope, 0) + s.length
        return out


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_polygon(A: FormalPoly, v: PAdic) -> NewtonPolygon:
    """Lower hull of {(i, v(a_i)) : a_i != 0}, by a monotone-chain pass.

    v(a_i) is read on integers, as v(nums_i) - v(den).  Rejects the zero
    polynomial (its support is empty).  Collinear interior points are not
    vertices, so consecutive segment slopes strictly increase.
    """
    vden = v.val(A.den)
    points = [(i, v.val(x) - vden) for i, x in enumerate(A.nums) if x]
    if not points:
        raise ValueError("the zero polynomial has no Newton polygon")
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    segments = tuple(
        Segment(Fraction(q[1] - p[1], q[0] - p[0]), q[0] - p[0])
        for p, q in zip(hull, hull[1:])
    )
    return NewtonPolygon(tuple(hull), segments)


class EDReport(Record):
    """Outcome of the Eisenstein-Dumas conditions on one polynomial.

    d1_gcd is the witness gcd(v(a_0) - v(a_n), n); d2_failing_index is the
    first index violating the valuation bound.  When d0 fails the endpoint
    valuations are not finite, so d1 and d2 are reported False with no
    witnesses rather than evaluated.
    """

    __slots__ = ("d0", "d1", "d2", "d1_gcd", "d2_failing_index")

    def __init__(self, d0: bool, d1: bool, d2: bool,
                 d1_gcd: int | None = None, d2_failing_index: int | None = None):
        _set(self, "d0", d0)
        _set(self, "d1", d1)
        _set(self, "d2", d2)
        _set(self, "d1_gcd", d1_gcd)
        _set(self, "d2_failing_index", d2_failing_index)

    @property
    def verdict(self) -> bool:
        return self.d0 and self.d1 and self.d2


def is_ed(A: FormalPoly, v: PAdic) -> EDReport:
    """Eisenstein-Dumas test (D0), (D1), (D2) at the formal degree of A.

    The conditions are read from A.nums.  Each valuation is v(a_i) + v(den),
    and the common term cancels: v0 - vn in (D1) is unchanged, and (D2)
    gains n v(den) on both sides.  Only v0 and vn are valued; (D2) at each
    index is the divisibility test of the module docstring, and its first
    failing index is the first index where that test fails.
    """
    n, nums = A.formal_degree, A.nums
    if nums[0] == 0 or nums[n] == 0:
        return EDReport(d0=False, d1=False, d2=False)
    v0 = v.val(nums[0])
    vn = v.val(nums[n])
    d1_gcd = math.gcd(v0 - vn, n)
    failing = None
    k, pk = 0, 1  # k_i and p^k_i, recomputed only when k_i changes
    for i in range(1, n):
        ki = ((n - i) * v0 + i * vn + n - 1) // n
        if ki != k:
            k, pk = ki, v.p**ki
        if nums[i] % pk:  # 0 % pk == 0: v(0) = infinity passes
            failing = i
            break
    return EDReport(
        d0=True, d1=d1_gcd == 1, d2=failing is None, d1_gcd=d1_gcd, d2_failing_index=failing
    )


def dumas_concat_holds(A: FormalPoly, B: FormalPoly, v: PAdic) -> bool:
    """Whether the product polygon's slope multiset is the merge of the factors'.

    Dumas' theorem guarantees this for every pair; a False return would
    witness a polygon bug.  Both inputs must be nonzero with actual degree
    equal to formal degree.
    """
    for name, P in (("A", A), ("B", B)):
        if P.is_zero:
            raise ValueError(f"dumas_concat_holds: {name} is zero")
        if P.actual_degree != P.formal_degree:
            raise ValueError(
                f"dumas_concat_holds: {name} has actual degree {P.actual_degree} "
                f"below formal degree {P.formal_degree}"
            )
    merged: dict[Fraction, int] = newton_polygon(A, v).slope_lengths()
    for slope, length in newton_polygon(B, v).slope_lengths().items():
        merged[slope] = merged.get(slope, 0) + length
    return newton_polygon(A.mul(B), v).slope_lengths() == merged
