from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxplus1 import ratio_to_float
from reference import EQUAL, GREATER, LESS, cmp_pow


def test_cmp_pow_examples():
    assert cmp_pow(3, 2, 4) == LESS        # 9 < 16
    assert cmp_pow(3, 0, 0) == EQUAL       # 1 == 1
    assert cmp_pow(3, 7, 11) == GREATER    # 2187 > 2048


def test_cmp_pow_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cmp_pow(2, 1, 1)
    with pytest.raises(ValueError):
        cmp_pow(1, 1, 1)
    with pytest.raises(ValueError):
        cmp_pow(3, -1, 0)
    with pytest.raises(ValueError):
        cmp_pow(3, 0, -1)


def test_cmp_pow_equal_only_at_origin():
    for i in range(0, 40):
        for k in range(0, 40):
            if (i, k) != (0, 0):
                assert cmp_pow(3, i, k) != EQUAL


@pytest.mark.parametrize("m", [3, 5])
def test_cmp_pow_exhaustive_against_exponentiation(m):
    # Oracle: maintain m**i by repeated multiplication and compare the
    # exact integers; exhaustive over i, k <= 2000.
    limit = 2000
    pow2 = [1 << k for k in range(limit + 1)]
    p = 1
    for i in range(limit + 1):
        if i:
            p *= m
        expected = [(p > t) - (p < t) for t in pow2]
        got = [cmp_pow(m, i, k) for k in range(limit + 1)]
        assert got == expected, f"mismatch at m={m} i={i}"


def test_ratio_examples():
    assert ratio_to_float(64, 10) == 0.0625
    assert ratio_to_float(0, 5) == 0.0
    assert ratio_to_float(27328, 20) == 0.02606201171875


def test_ratio_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ratio_to_float(-1, 0)
    with pytest.raises(ValueError):
        ratio_to_float(1, -1)


def test_ratio_wide_numerator_golden():
    # 2**200 + 1 over 2**200: the +1 is far below the rounding cut.
    assert ratio_to_float(2**200 + 1, 200) == 1.0
    # A numerator needing real rounding: compare against Fraction.
    num = 3**333
    assert ratio_to_float(num, 600) == float(Fraction(num, 2**600))
    # A subnormal result, where rounding the top 64 bits first and then
    # the subnormal mantissa would round twice.
    num = 21872916066145230690
    assert ratio_to_float(num, 1088) == float(Fraction(num, 2**1088))


@given(num=st.integers(min_value=0, max_value=10**120),
       k=st.integers(min_value=0, max_value=1500))
@settings(max_examples=300, deadline=None)
def test_ratio_matches_correctly_rounded_division(num, k):
    assert ratio_to_float(num, k) == float(Fraction(num, 2**k))


@given(num=st.integers(min_value=0, max_value=10**40),
       delta=st.integers(min_value=0, max_value=10**20),
       k=st.integers(min_value=0, max_value=200))
@settings(max_examples=200, deadline=None)
def test_ratio_monotone_in_numerator(num, delta, k):
    assert ratio_to_float(num, k) <= ratio_to_float(num + delta, k)
