"""Univariate polynomials over Q carrying an explicit formal degree.

A polynomial here is the inhomogeneous face of a binary form of degree n:
the coefficient vector always has exactly n+1 entries a_0..a_n, even when
the top entries are zero.  This matters because the linear-fractional
action of 2x2 matrices preserves the formal degree while the actual degree
may drop, and every Eisenstein-Dumas check reads a_n at the formal degree.

Values are immutable, in one canonical integer form a_i = nums[i] / den with
den > 0 and gcd(den, *nums) = 1, so equal polynomials have equal fields.
Every kernel reads that form and reduces its result once, by one gcd; the
Fractions a_i are built only on request (coeffs).  No floating point anywhere.
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


def _substitute(A: "FormalPoly", a: Fraction | int, b: Fraction | int,
                c: Fraction | int, d: Fraction | int) -> "FormalPoly":
    """(cx+d)^n A((ax+b)/(cx+d)) at formal degree n = deg_f(A), for ad != bc:
    the binary form of A at (ax+b, cx+d).

    With alpha = A.nums, and lam the lcm of the denominators of a, b, c, d
    so that the entries become integers, sum alpha_i (ax+b)^i (cx+d)^(n-i)
    is A.den lam^n times the result, which is that sum over A.den lam^n,
    reduced once.  The sum is built on integers in one of two ways:

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
    lam = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    a, b, c, d = (x.numerator * (lam // x.denominator) for x in (a, b, c, d))
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
    def from_coeffs(
        cls, coeffs: Iterable[Fraction | int], formal_degree: int | None = None
    ) -> "FormalPoly":
        """Build from a_0.. upward, optionally zero-padding to a larger formal degree."""
        cs = [c if isinstance(c, Fraction) else operator.index(c) for c in coeffs] or [0]
        if formal_degree is not None:
            if formal_degree + 1 < len(cs):
                raise ValueError(
                    f"formal degree {formal_degree} is below the coefficient count {len(cs)}"
                )
            cs.extend([0] * (formal_degree + 1 - len(cs)))
        D = math.lcm(*(c.denominator for c in cs))
        return cls(D, tuple(c.numerator * (D // c.denominator) for c in cs))

    @classmethod
    def zero(cls, formal_degree: int = 0) -> "FormalPoly":
        return cls(1, (0,) * (formal_degree + 1))

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
        q = t.denominator
        return Fraction(_form_at(self.nums, t.numerator, q), self.den * q ** (len(self.nums) - 1))

    def derivative(self) -> "FormalPoly":
        """Formal derivative at formal degree n-1 (constants drop to degree 0)."""
        if len(self.nums) == 1:
            return FormalPoly.zero(0)
        return FormalPoly(self.den, tuple(i * x for i, x in enumerate(self.nums) if i > 0))

    def taylor_shift(self, t: Fraction | int) -> "FormalPoly":
        """A(x + t) at the same formal degree; leading coefficient unchanged.

        The action of the shear [[1, t], [0, 1]]: O(n^2) integer operations.
        """
        if t == 0:
            return self
        return _substitute(self, 1, t, 0, 1)

    def reverse(self) -> "FormalPoly":
        """Coefficient reversal with respect to the formal degree (an involution)."""
        return FormalPoly(self.den, self.nums[::-1])

    def scale_arg(self, t: Fraction | int) -> "FormalPoly":
        """A(t*x): a_i -> a_i * t^i.  Requires t != 0."""
        if t == 0:
            raise ValueError("scale_arg requires t != 0")
        p, q = t.numerator, t.denominator
        n = len(self.nums) - 1
        return FormalPoly(
            self.den * q**n,
            tuple(x * p**i * q ** (n - i) for i, x in enumerate(self.nums)),
        )

    def scale_all(self, t: Fraction | int) -> "FormalPoly":
        """t * A(x).  Requires t != 0."""
        if t == 0:
            raise ValueError("scale_all requires t != 0")
        return FormalPoly(self.den * t.denominator, tuple(x * t.numerator for x in self.nums))
