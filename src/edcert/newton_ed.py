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
can equivalently be required strict at the interior indices 1..n-1; both
forms are implemented and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import gcd
from .poly import FormalPoly
from .valuation import PAdic


@dataclass(frozen=True)
class Segment:
    """One side of a polygon: exact slope and horizontal length."""

    slope: Fraction
    length: int


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of the support points of a polynomial.

    Vertex indices are strictly increasing from the smallest support index
    to the largest; segment slopes are strictly increasing left to right.
    """

    vertices: tuple[tuple[int, int], ...]
    segments: tuple[Segment, ...]

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

    Rejects the zero polynomial (its support is empty).  Collinear interior
    points are not vertices, so consecutive segment slopes strictly increase.
    """
    points = [(i, v.val(A.coeffs[i])) for i in A.support()]
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


@dataclass(frozen=True)
class EDReport:
    """Outcome of the Eisenstein-Dumas conditions on one polynomial.

    d1_gcd is the witness gcd(v(a_0) - v(a_n), n); d2_failing_index is the
    first index violating the valuation bound.  When d0 fails the endpoint
    valuations are not finite, so d1 and d2 are reported False with no
    witnesses rather than evaluated.
    """

    d0: bool
    d1: bool
    d2: bool
    d1_gcd: int | None = None
    d2_failing_index: int | None = None

    @property
    def verdict(self) -> bool:
        return self.d0 and self.d1 and self.d2


def _ed_report(A: FormalPoly, v: PAdic, strict_interior: bool) -> EDReport:
    n = A.formal_degree
    a0, an = A.coeffs[0], A.coeffs[n]
    if a0 == 0 or an == 0:
        return EDReport(d0=False, d1=False, d2=False)
    v0 = v.val(a0)
    vn = v.val(an)
    drop = v0 - vn
    d1_gcd = gcd(drop, n)
    d1 = d1_gcd == 1
    d2 = True
    failing = None
    for i in range(n + 1):
        if A.coeffs[i] == 0:
            continue  # v = infinity dominates any finite bound
        lhs = n * v.val(A.coeffs[i])
        rhs = (n - i) * v0 + i * vn
        needs_strict = strict_interior and 1 <= i <= n - 1
        if not (lhs > rhs if needs_strict else lhs >= rhs):
            d2 = False
            failing = i
            break
    return EDReport(d0=True, d1=d1, d2=d2, d1_gcd=d1_gcd, d2_failing_index=failing)


def is_ed(A: FormalPoly, v: PAdic) -> EDReport:
    """Eisenstein-Dumas test (D0), (D1), (D2) at the formal degree of A."""
    return _ed_report(A, v, strict_interior=False)


def is_ed_strict(A: FormalPoly, v: PAdic) -> EDReport:
    """Variant with the bound strict at interior indices; same verdict as is_ed."""
    return _ed_report(A, v, strict_interior=True)


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
