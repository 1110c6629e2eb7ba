"""Right action of nonsingular 2x2 rational matrices on polynomials.

A degree-n polynomial A corresponds to the binary form sum a_i x^i y^(n-i);
a matrix g = [[a, b], [c, d]] acts by the substitution (x, y) -> (ax+b, cx+d)
on that form, i.e.

    A(x) g = (cx + d)^n A((ax + b) / (cx + d)).

The result keeps formal degree n even when its actual degree drops, which is
what makes this a genuine right action on formal-degree-n polynomials.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from ._record import Record, _set
from .poly import FormalPoly, _substitute


class Mat2(Record):
    """Nonsingular 2x2 rational matrix [[a, b], [c, d]]; integer entries are
    stored as Fractions."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Fraction | int, b: Fraction | int, c: Fraction | int, d: Fraction | int):
        a, b, c, d = (x if isinstance(x, Fraction) else Fraction(operator.index(x))
                      for x in (a, b, c, d))
        # ad = bc with the denominators cleared, so no Fraction is built
        if (
            a.numerator * d.numerator * b.denominator * c.denominator
            == b.numerator * c.numerator * a.denominator * d.denominator
        ):
            raise ValueError("matrix is singular")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def swap(cls) -> "Mat2":
        """The coordinate swap [[0, 1], [1, 0]]; acting by it reverses coefficients."""
        return cls(0, 1, 1, 0)

    @classmethod
    def shear(cls, t: Fraction | int) -> "Mat2":
        """Upper shear [[1, t], [0, 1]]; acting by it is the Taylor shift by t."""
        return cls(1, t, 0, 1)

    def compose(self, other: "Mat2") -> "Mat2":
        """Matrix product self * other; determinants multiply."""
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self) -> "Mat2":
        det = self.det
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)


def act(A: FormalPoly, g: Mat2) -> FormalPoly:
    """A(x) g = (cx+d)^n A((ax+b)/(cx+d)) at formal degree n = deg_f(A).

    The substitution (x, y) -> (ax+b, cx+d) into the binary form
    sum a_i x^i y^(n-i), on integers: A.nums and the entries of g with their
    denominators cleared go through a synthetic-division Taylor shift when
    g is upper triangular (c = 0) and through Horner's rule on the binary
    form otherwise, in O(n^2) integer operations, and the result's
    (den, nums) is reduced by one gcd (see poly._substitute).
    FormalPoly.taylor_shift is the same computation for the shear
    [[1, t], [0, 1]].
    """
    return _substitute(A, *g.entries())
