"""Univariate polynomials over Q carrying an explicit formal degree.

A polynomial here is the inhomogeneous face of a binary form of degree n:
the coefficient vector always has exactly n+1 entries a_0..a_n, even when
the top entries are zero.  This matters because the linear-fractional
action of 2x2 matrices preserves the formal degree while the actual degree
may drop, and every Eisenstein-Dumas check reads a_n at the formal degree.

Coefficients are Fractions and values are immutable.  The arithmetic that
costs O(n) or O(n^2) (evaluation, the Taylor shift, the matrix action) runs
on integers: it clears the denominators once, with the lcm of the
coefficients' denominators, and divides once at the end, so only the
results are reduced Fractions.  No floating point anywhere.
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


def _integer_form(values: Sequence[Rational | int]) -> tuple[int, list[int]]:
    """(D, [D v for v in values]) with D the lcm of the denominators, so
    that every D v is an integer."""
    D = math.lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def _substitute(A: "FormalPoly", a: Rational | int, b: Rational | int,
                c: Rational | int, d: Rational | int) -> "FormalPoly":
    """(cx+d)^n A((ax+b)/(cx+d)) at formal degree n = deg_f(A), for ad != bc:
    the binary form of A at (ax+b, cx+d).

    D, the lcm of A's denominators, makes every alpha_i = D a_i an integer,
    and lam, the lcm of the denominators of a, b, c, d, makes the entries
    integers.  On those, sum alpha_i (ax+b)^i (cx+d)^(n-i) is D lam^n times
    the result.  Horner on the binary form builds it as
    P <- P (ax+b) + alpha_i (cx+d)^(n-i), i from n down to 0, keeping
    R = (cx+d)^(n-i) as it goes: O(n^2) integer operations, then one
    division by D lam^n per coefficient.
    """
    D, alpha = _integer_form(A.coeffs)
    lam, (a, b, c, d) = _integer_form((a, b, c, d))
    P, R = [alpha[-1]], [1]
    for ai in reversed(alpha[:-1]):
        R = [d * r + c * s for r, s in zip(R + [0], [0] + R)]
        P = [b * p + a * q + ai * r for p, q, r in zip(P + [0], [0] + P, R)]
    den = D * lam ** (len(alpha) - 1)
    return FormalPoly(tuple(Fraction(p, den) for p in P))


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
        d, alpha = _integer_form(self.coeffs)
        acc = 0
        qpow = 1
        for ai in reversed(alpha):
            acc = acc * p + ai * qpow
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

        The action of the shear [[1, t], [0, 1]]: O(n^2) integer operations.
        """
        t = _coerce(t)
        if t == 0:
            return self
        return _substitute(self, 1, t, 0, 1)

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
