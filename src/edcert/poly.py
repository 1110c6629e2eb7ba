"""Univariate polynomials over Q carrying an explicit formal degree.

A polynomial here is the inhomogeneous face of a binary form of degree n:
the coefficient vector always has exactly n+1 entries a_0..a_n, even when
the top entries are zero.  This matters because the linear-fractional
action of 2x2 matrices preserves the formal degree while the actual degree
may drop, and every Eisenstein-Dumas check reads a_n at the formal degree.

All arithmetic is exact (Fraction coefficients); values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_arith import Rational


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class FormalPoly:
    """Coefficient vector a_0..a_n; the tuple length fixes the formal degree n."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("coefficient vector must have at least one entry")
        object.__setattr__(self, "coeffs", tuple(_coerce(c) for c in self.coeffs))

    @classmethod
    def from_coeffs(
        cls, coeffs: Iterable[Rational | int], formal_degree: int | None = None
    ) -> "FormalPoly":
        """Build from a_0.. upward, optionally zero-padding to a larger formal degree."""
        cs = [_coerce(c) for c in coeffs]
        if not cs:
            cs = [Fraction(0)]
        if formal_degree is not None:
            if formal_degree + 1 < len(cs):
                raise ValueError(
                    f"formal degree {formal_degree} is below the coefficient count {len(cs)}"
                )
            cs.extend([Fraction(0)] * (formal_degree + 1 - len(cs)))
        return cls(tuple(cs))

    @classmethod
    def zero(cls, formal_degree: int = 0) -> "FormalPoly":
        return cls((Fraction(0),) * (formal_degree + 1))

    @property
    def formal_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def actual_degree(self) -> int:
        """Index of the highest nonzero coefficient; -1 for the zero polynomial."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return -1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coefficient(self, i: int) -> Fraction:
        """a_i, with zero beyond the formal degree."""
        if i < 0:
            raise IndexError("negative coefficient index")
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0]

    @property
    def leading(self) -> Fraction:
        """a_n at the formal degree (may be zero)."""
        return self.coeffs[-1]

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "FormalPoly") -> "FormalPoly":
        """Coefficientwise sum at formal degree max(n_A, n_B)."""
        n = max(len(self.coeffs), len(other.coeffs))
        return FormalPoly(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __add__ = add

    def neg(self) -> "FormalPoly":
        return FormalPoly(tuple(-c for c in self.coeffs))

    __neg__ = neg

    def sub(self, other: "FormalPoly") -> "FormalPoly":
        return self.add(other.neg())

    __sub__ = sub

    def mul(self, other: "FormalPoly") -> "FormalPoly":
        """Convolution product at formal degree n_A + n_B."""
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return FormalPoly(tuple(out))

    __mul__ = mul

    def eval(self, t: Rational | int) -> Fraction:
        """Exact value at t, by Horner's rule on integers.

        With t = p/q and d the common denominator of the coefficients, the
        sum of d a_i p^i q^(n-i) is an integer, divided once by d q^n; only
        that last Fraction is reduced, which matters when t is tall.
        """
        t = _coerce(t)
        p, q = t.numerator, t.denominator
        d = math.lcm(*(c.denominator for c in self.coeffs))
        acc = 0
        qpow = 1
        for c in reversed(self.coeffs):
            acc = acc * p + c.numerator * (d // c.denominator) * qpow
            qpow *= q
        return Fraction(acc, d * (qpow // q))

    __call__ = eval

    def derivative(self) -> "FormalPoly":
        """Formal derivative at formal degree n-1 (constants drop to degree 0)."""
        if len(self.coeffs) == 1:
            return FormalPoly.zero(0)
        return FormalPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def taylor_shift(self, t: Rational | int) -> "FormalPoly":
        """A(x + t) at the same formal degree; leading coefficient unchanged.

        Horner's repeated synthetic division by x - t, O(n^2) exact operations.
        """
        t = _coerce(t)
        n = self.formal_degree
        if t == 0:
            return self
        out = list(self.coeffs)
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                out[k] += t * out[k + 1]
        return FormalPoly(tuple(out))

    def reverse(self) -> "FormalPoly":
        """Coefficient reversal with respect to the formal degree (an involution)."""
        return FormalPoly(tuple(reversed(self.coeffs)))

    def scale_arg(self, t: Rational | int) -> "FormalPoly":
        """A(t*x): a_i -> a_i * t^i.  Requires t != 0."""
        t = _coerce(t)
        if t == 0:
            raise ValueError("scale_arg requires t != 0")
        out = []
        tp = Fraction(1)
        for c in self.coeffs:
            out.append(c * tp)
            tp *= t
        return FormalPoly(tuple(out))

    def scale_all(self, t: Rational | int) -> "FormalPoly":
        """t * A(x).  Requires t != 0."""
        t = _coerce(t)
        if t == 0:
            raise ValueError("scale_all requires t != 0")
        return FormalPoly(tuple(c * t for c in self.coeffs))

    def support(self) -> Sequence[int]:
        """Indices of nonzero coefficients, ascending."""
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)
