"""Univariate polynomials over Q carrying an explicit formal degree.

A polynomial here is the inhomogeneous face of a binary form of degree n:
the coefficient vector always has exactly n+1 entries a_0..a_n, even when
the top entries are zero.  This matters because the linear-fractional
action of 2x2 matrices preserves the formal degree while the actual degree
may drop, and every Eisenstein-Dumas check reads a_n at the formal degree.

Values are immutable, in one canonical integer form a_i = nums[i] / den with
den > 0 and gcd(den, *nums) = 1, so equal polynomials have equal fields.
Every kernel reads that form and reduces its result once, by one gcd; the
Fractions a_i are built only on request (coeffs) and read only by its
inverse, from_coeffs.  No floating point anywhere.
Reversal, scalings and shears are written as act(A, g) (edcert.moebius); the
class holds only what the package and its benchmark call.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._record import Record, _set


def _form_at(alpha: Sequence[int], u: int, w: int) -> int:
    """sum alpha_i u^i w^(n-i) with n = len(alpha) - 1: the binary form with
    integer coefficients alpha at (u, w), by one Horner pass."""
    F, wk = alpha[-1], 1
    for ai in alpha[-2::-1]:
        wk *= w
        F = F * u + ai * wk
    return F


def _rational(t: Fraction | int) -> tuple[int, int]:
    """(numerator, denominator) of a rational point t, an int or a Fraction;
    anything else, a float included, raises TypeError."""
    if not isinstance(t, (int, Fraction)):
        raise TypeError(f"a rational point must be an int or a Fraction, got {type(t).__name__}")
    return t.numerator, t.denominator


def _substitute(A: "FormalPoly", lam: int, a: int, b: int, c: int, d: int) -> "FormalPoly":
    """A g at formal degree n = deg_f(A) for g = [[a, b], [c, d]] / lam, all
    five integers, ad != bc: the binary form of A at (ax+b, cx+d) over lam^n.

    With alpha = A.nums, sum alpha_i (ax+b)^i (cx+d)^(n-i) is A.den lam^n
    times the result, which is that sum over A.den lam^n, reduced once.  The
    sum is built on integers in one of two ways:

      * c = 0, the paper's triangular action (shears, scalings, U(A)):
        sum alpha_i d^(n-i) (ax+b)^i is B(ax+b) with B(y) = sum alpha_i
        d^(n-i) y^i, and B(ax+b) is B(y+b) at y = ax.  So scale alpha_i by
        d^(n-i), Taylor-shift by the integer b by synthetic division (n^2/2
        multiply-adds), and scale the coefficient of x^i by a^i.
      * c != 0: Horner on the binary form, P <- P (ax+b) + alpha_i
        (cx+d)^(n-i), i from n down to 0, keeping R = (cx+d)^(n-i) as it
        goes: also O(n^2), but with three products per coefficient and step.
    """
    alpha = A.nums
    n = len(alpha) - 1
    if c == 0:
        P, dk = list(alpha), 1
        for i in range(n, -1, -1):
            P[i] *= dk
            dk *= d
        if b:
            for i in range(n):
                for k in range(n - 1, i - 1, -1):
                    P[k] += b * P[k + 1]
        ak = 1
        for i in range(n + 1):
            P[i] *= ak
            ak *= a
    else:
        P, R = [alpha[-1]], [1]
        for ai in reversed(alpha[:-1]):
            R = [d * r + c * s for r, s in zip(R + [0], [0] + R)]
            P = [b * p + a * q + ai * r for p, q, r in zip(P + [0], [0] + P, R)]
    return FormalPoly(A.den * lam**n, tuple(P))


class FormalPoly(Record):
    """a_i = nums[i] / den for i = 0..n, so len(nums) fixes the formal degree
    n; any den != 0 and integer nums are accepted and stored reduced."""

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums: Sequence[int]):
        if not nums:
            raise ValueError("coefficient vector must have at least one entry")
        if den == 0:
            raise ValueError("zero denominator")
        g = math.gcd(den, *nums) * (1 if den > 0 else -1)
        _set(self, "den", den // g)
        _set(self, "nums", tuple(x // g for x in nums))

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Fraction | int]) -> "FormalPoly":
        """Build from a_0.. upward, ints or Fractions; the inverse of coeffs."""
        cs = [c if isinstance(c, Fraction) else operator.index(c) for c in coeffs] or [0]
        D = math.lcm(*(c.denominator for c in cs))
        return cls(D, tuple(c.numerator * (D // c.denominator) for c in cs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The Fractions a_0..a_n, built on each read."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def formal_degree(self) -> int:
        return len(self.nums) - 1

    @property
    def actual_degree(self) -> int:
        """Index of the highest nonzero coefficient; -1 for the zero polynomial."""
        for i in range(len(self.nums) - 1, -1, -1):
            if self.nums[i]:
                return i
        return -1

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- arithmetic ---------------------------------------------------------

    def mul(self, other: "FormalPoly") -> "FormalPoly":
        """Convolution product at formal degree n_A + n_B."""
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return FormalPoly(self.den * other.den, tuple(out))

    __mul__ = mul

    def eval(self, t: Fraction | int) -> Fraction:
        """Exact value at t, by Horner's rule on integers.

        With t = p/q, the sum of nums_i p^i q^(n-i) is an integer (the
        binary form at (p, q), _form_at), divided once by den q^n; only that
        last Fraction is reduced, which matters when t is tall.
        """
        p, q = _rational(t)
        return Fraction(_form_at(self.nums, p, q), self.den * q ** (len(self.nums) - 1))

    def taylor_shift(self, t: Fraction | int) -> "FormalPoly":
        """A(x + t) at the same formal degree; leading coefficient unchanged.

        The action of the shear [[1, t], [0, 1]]: O(n^2) integer operations.
        """
        p, q = _rational(t)
        if p == 0:
            return self
        return _substitute(self, q, q, p, 0, q)
