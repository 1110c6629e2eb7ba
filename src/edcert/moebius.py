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
from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import Rational
from .poly import FormalPoly, _substitute


@dataclass(frozen=True)
class Mat2:
    """Nonsingular 2x2 rational matrix [[a, b], [c, d]]."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not isinstance(x := getattr(self, name), Fraction):
                object.__setattr__(self, name, Fraction(operator.index(x)))
        a, b, c, d = self.a, self.b, self.c, self.d
        # ad = bc with the denominators cleared, so no Fraction is built
        if (
            a.numerator * d.numerator * b.denominator * c.denominator
            == b.numerator * c.numerator * a.denominator * d.denominator
        ):
            raise ValueError("matrix is singular")

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
    def shear(cls, t: Rational | int) -> "Mat2":
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
    sum a_i x^i y^(n-i), on integers: Horner's rule on the binary form runs
    on A.nums and the entries of g with their denominators cleared, in O(n^2)
    integer operations, and the result's (den, nums) is reduced by one gcd
    (see poly._substitute).  FormalPoly.taylor_shift is the same computation
    for the shear [[1, t], [0, 1]].
    """
    return _substitute(A, *g.entries())
