from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from edcert import PAdic


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
