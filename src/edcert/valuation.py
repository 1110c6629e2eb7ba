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

from fractions import Fraction

from ._record import Record, _set
from .certificate import _clip
from .exact_arith import is_probable_prime


def _int_val(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n.

    A short n (under 1024 bits, where a division by p costs little) is
    stripped one factor at a time; most values a search reads have valuation
    0, 1 or 2, so that loop runs at most twice for them.  A long n is reduced
    modulo p, p^2, p^4, ... until a power p^(2^m) leaves a remainder r != 0.
    Then v(n) < 2^m, so v(n) = v(r), and the binary digits of v(r) are read
    off by one division of the short r per smaller power, largest first:
    about 2 log2(v) divisions in place of v.
    """
    k = 0
    if n.bit_length() < 1024:
        while n % p == 0:
            n //= p
            k += 1
        return k
    powers = [p]
    while (r := n % powers[-1]) == 0:
        powers.append(powers[-1] * powers[-1])
    for j in range(len(powers) - 2, -1, -1):
        q, rem = divmod(r, powers[j])
        if not rem:
            r = q
            k += 1 << j
    return k


class PAdic(Record):
    """The p-adic valuation v_p on Q, with primality of p checked up front
    (deterministically below 3.3e24, see is_probable_prime)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_probable_prime(p):
            raise ValueError(f"{_clip(str(p))} is not prime")
        _set(self, "p", p)

    def val(self, q: Fraction | int) -> int:
        """v_p(q) for q != 0, possibly negative; ValueError for q = 0."""
        if q == 0:
            raise ValueError("the valuation of 0 is infinite")
        if isinstance(q, int):
            return _int_val(q, self.p)
        return _int_val(q.numerator, self.p) - _int_val(q.denominator, self.p)
