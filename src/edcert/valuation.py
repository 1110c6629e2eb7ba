"""p-adic valuations on the rationals.

A p-adic valuation sends q = p^k * (a/b) with p dividing neither a nor b to
the integer k, and 0 to the distinguished element infinity.  It satisfies
the Krull valuation axioms

    v(a) = infinity  iff  a = 0,
    v(ab) = v(a) + v(b),
    v(a+b) >= min(v(a), v(b)),  with equality whenever v(a) != v(b).

The value group here is always Z (rank one, discrete): up to equivalence
these are the only nontrivial valuations the rational field carries.  The
residue field of v_p is the field with p elements, so "the residue
characteristic divides n" is exactly the divisibility test p | n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exact_arith import Rational, is_probable_prime


class _InfinityType:
    """The element adjoined above every integer; absorbing under addition.

    A dedicated singleton rather than a sentinel integer, so that arithmetic
    at zero coefficients cannot silently go wrong.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("edcert-infinity")

    def __lt__(self, other):
        if isinstance(other, (int, Fraction, _InfinityType)):
            return False
        return NotImplemented

    def __le__(self, other):
        if other is self:
            return True
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __gt__(self, other):
        if other is self:
            return False
        if isinstance(other, (int, Fraction)):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Fraction, _InfinityType)):
            return True
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, Fraction, _InfinityType)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and other > 0:
            return self
        if other is self:
            return self
        raise ArithmeticError("Infinity may only be scaled by positive values")

    __rmul__ = __mul__

    def __neg__(self):
        raise ArithmeticError("negative infinity is not part of the value group")


INFINITY = _InfinityType()

#: A valuation value: a finite integer or INFINITY.
Val = Union[int, _InfinityType]


def _int_val(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@dataclass(frozen=True)
class PAdic:
    """The p-adic valuation v_p on Q, with primality of p checked up front
    (deterministically below 3.3e24, see is_probable_prime)."""

    p: int

    def __post_init__(self):
        if not is_probable_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def val(self, q: Rational | int) -> Val:
        """v_p(q); INFINITY for q = 0, possibly negative otherwise."""
        if q == 0:
            return INFINITY
        if isinstance(q, int):
            return _int_val(q, self.p)
        return _int_val(q.numerator, self.p) - _int_val(q.denominator, self.p)

    __call__ = val

    @property
    def residue_char(self) -> int:
        """Characteristic of the residue field (the field with p elements)."""
        return self.p

    def divides(self, n: int) -> bool:
        """Whether the residue characteristic divides n."""
        return n % self.p == 0
