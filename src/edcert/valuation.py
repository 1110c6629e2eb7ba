"""p-adic valuations on the rationals.

A p-adic valuation sends a nonzero q = p^k * (a/b) with p dividing neither
a nor b to the integer k.  On nonzero rationals it satisfies the valuation
axioms

    v(ab) = v(a) + v(b),
    v(a+b) >= min(v(a), v(b)) when a+b != 0,  with equality whenever v(a) != v(b).

The value at 0 is infinity by convention; here it is an error instead,
since every caller tests a coefficient for zero before reading its value.

The value group here is always Z (rank one, discrete): up to equivalence
these are the only nontrivial valuations the rational field carries.  The
residue field of v_p is the field with p elements, so "the residue
characteristic divides n" is exactly the divisibility test p | n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificate import _clip
from .exact_arith import Rational, is_probable_prime


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
            raise ValueError(f"{_clip(str(self.p))} is not prime")

    def val(self, q: Rational | int) -> int:
        """v_p(q) for q != 0, possibly negative; ValueError for q = 0."""
        if q == 0:
            raise ValueError("the valuation of 0 is infinite")
        if isinstance(q, int):
            return _int_val(q, self.p)
        return _int_val(q.numerator, self.p) - _int_val(q.denominator, self.p)
