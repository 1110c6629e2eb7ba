import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from edcert import PAdic
from helpers import reference_int_val


def test_val_examples():
    v2 = PAdic(2)
    assert v2.val(8) == 3
    with pytest.raises(ValueError):
        v2.val(0)
    assert v2.val(Fraction(1, 2)) == -1
    assert v2.val(Fraction(3, 4)) == -2
    assert PAdic(5).val(Fraction(205, 256)) == 1


def test_non_prime_rejected():
    for bad in (1, 0, -3, 6, 561, 2**10):
        with pytest.raises(ValueError):
            PAdic(bad)


nonzero_rationals = st.fractions(max_denominator=100).filter(lambda q: q != 0)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7]))
def test_valuation_axioms(a, b, p):
    v = PAdic(p)
    assert v.val(a * b) == v.val(a) + v.val(b)
    if a + b != 0:
        assert v.val(a + b) >= min(v.val(a), v.val(b))
        if v.val(a) != v.val(b):
            assert v.val(a + b) == min(v.val(a), v.val(b))
    else:
        with pytest.raises(ValueError):
            v.val(a + b)


@given(nonzero_rationals, st.sampled_from([2, 3, 5, 7]))
def test_unit_and_inverse_values(a, p):
    v = PAdic(p)
    assert v.val(1) == 0 and v.val(-1) == 0
    assert v.val(1 / a) == -v.val(a)


def test_val_matches_one_division_per_unit():
    # The straight-line steps, the short-integer loop and the squaring path
    # against one division per unit, on 1500 seeded integers: either sign,
    # valuations 0-2500, cofactors of 1-400 digits (which may carry p
    # themselves), so both sides of the 1024-bit switch, and p from 2 up to
    # 10^6 + 3.  Then every valuation on each side of a power of two, where
    # the binary descent changes length, on a long cofactor.  Valuations past
    # 300 are drawn for p < 1000 only, where the reference stays cheap.
    rng = random.Random(1616)
    primes = (2, 3, 5, 7, 101, 65537, 1000003)
    for _ in range(1500):
        p = rng.choice(primes)
        top = 2500 if p < 1000 else 300
        v = rng.choice((rng.randint(0, 4), rng.randint(0, 40), rng.randint(0, top)))
        x = rng.choice((-1, 1)) * p**v * rng.randrange(1, 10 ** rng.choice((1, 20, 400)))
        assert PAdic(p).val(x) == reference_int_val(x, p), (p, v)
    unit = rng.randrange(10**399, 10**400)
    for p in (2, 3, 1000003):
        for j in range(12):
            for v in (2**j - 1, 2**j, 2**j + 1):
                x = p**v * unit
                assert PAdic(p).val(x) == reference_int_val(x, p), (p, v)
                assert PAdic(p).val(Fraction(7, x)) == -reference_int_val(x, p)
