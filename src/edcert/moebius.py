"""Right action of nonsingular 2x2 rational matrices on polynomials.

A degree-n polynomial A corresponds to the binary form sum a_i x^i y^(n-i);
a matrix g = [[a, b], [c, d]] acts by the substitution (x, y) -> (ax+b, cx+d)
on that form, i.e.

    A(x) g = (cx + d)^n A((ax + b) / (cx + d)).

The result keeps formal degree n even when its actual degree drops, which is
what makes this a genuine right action on formal-degree-n polynomials.  The
elementary matrices are written out: the shear Mat2(1, t, 0, 1) shifts,
A(x + t); Mat2(t, 0, 0, 1) scales the argument, A(t x); and the swap
Mat2(0, 1, 1, 0) reverses the coefficients.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._record import Record, _set
from .poly import FormalPoly, _substitute


class Mat2(Record):
    """Nonsingular 2x2 rational matrix [[a, b], [c, d]] / den in one integer
    form, like FormalPoly: den > 0 and gcd(a, b, c, d, den) = 1, so equal
    matrices have equal fields.  a..d may be given as ints or Fractions and
    den as a nonzero int; entries() builds the Fractions on request.  The
    package needs no product, inverse or determinant, so Mat2 has none."""

    __slots__ = ("a", "b", "c", "d", "den")

    def __init__(self, a: Fraction | int, b: Fraction | int, c: Fraction | int,
                 d: Fraction | int, den: int = 1):
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            den = operator.index(den)
        else:  # Fractions clear their denominators into den; bools become ints
            xs = [x if isinstance(x, Fraction) else operator.index(x) for x in (a, b, c, d)]
            lam = math.lcm(*(x.denominator for x in xs))
            a, b, c, d = (x.numerator * (lam // x.denominator) for x in xs)
            den = operator.index(den) * lam
        if den == 0:
            raise ValueError("zero denominator")
        if a * d == b * c:
            raise ValueError("matrix is singular")
        g = math.gcd(a, b, c, d, den) * (1 if den > 0 else -1)
        for name, x in zip(self.__slots__, (a, b, c, d, den)):
            _set(self, name, x // g)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The Fractions a/den, b/den, c/den, d/den, built on each call."""
        return tuple(Fraction(x, self.den) for x in (self.a, self.b, self.c, self.d))


def act(A: FormalPoly, g: Mat2) -> FormalPoly:
    """A(x) g = (cx+d)^n A((ax+b)/(cx+d)) at formal degree n = deg_f(A), on
    integers in O(n^2) operations: a synthetic-division Taylor shift when g is
    upper triangular (c = 0), Horner's rule on the binary form otherwise, and
    one gcd to reduce (see poly._substitute).  FormalPoly.taylor_shift is the
    same computation for the shear Mat2(1, t, 0, 1).
    """
    return _substitute(A, g.den, g.a, g.b, g.c, g.d)
