"""Right action of nonsingular 2x2 rational matrices on polynomials.

A degree-n polynomial A corresponds to the binary form sum a_i x^i y^(n-i);
a matrix g = [[a, b], [c, d]] acts by the substitution (x, y) -> (ax+b, cx+d)
on that form, i.e.

    A(x) g = (cx + d)^n A((ax + b) / (cx + d)).

The result keeps formal degree n even when its actual degree drops, which is
what makes this a genuine right action on formal-degree-n polynomials.  The
elementary matrices are written out in the integer form, for t = p/q: the
shear Mat2(q, p, 0, q, q) shifts, A(x + t); Mat2(p, 0, 0, q, q) scales the
argument, A(t x); and the swap Mat2(0, 1, 1, 0) reverses the coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record, _set
from .poly import FormalPoly, _substitute


class Mat2(Record):
    """Nonsingular 2x2 rational matrix [[a, b], [c, d]] / den in one integer
    form, like FormalPoly: den > 0 and gcd(a, b, c, d, den) = 1, so equal
    matrices have equal fields.  The five arguments are integers (bools count
    as ints), anything else raises TypeError; entries() builds the rationals
    on request.  The package needs no product, inverse or determinant, so
    Mat2 has none."""

    __slots__ = ("a", "b", "c", "d", "den")

    def __init__(self, a: int, b: int, c: int, d: int, den: int = 1):
        # math.gcd raises the TypeError for anything but integers
        g = math.gcd(a, b, c, d, den) * (1 if den > 0 else -1)
        if den == 0:
            raise ValueError("zero denominator")
        if a * d == b * c:
            raise ValueError("matrix is singular")
        for name, x in zip(self.__slots__, (a, b, c, d, den)):
            _set(self, name, x // g)

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The Fractions a/den, b/den, c/den, d/den, built on each call."""
        return tuple(Fraction(x, self.den) for x in (self.a, self.b, self.c, self.d))


def act(A: FormalPoly, g: Mat2) -> FormalPoly:
    """A(x) g = (cx+d)^n A((ax+b)/(cx+d)) at formal degree n = deg_f(A), on
    integers in O(n^2) operations: a synthetic-division Taylor shift when g is
    upper triangular (c = 0), Horner's rule on the binary form otherwise, and
    one gcd to reduce (see poly._substitute).  FormalPoly.taylor_shift is the
    same computation for the shear by t = p/q, Mat2(q, p, 0, q, q).
    """
    return _substitute(A, g.den, g.a, g.b, g.c, g.d)
