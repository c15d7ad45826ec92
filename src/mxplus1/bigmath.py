"""Arbitrary-precision numeric foundations.

Counts live in plain Python ints, which are already unbounded, so this
module only adds what the table and the oracle need beyond ordinary
integer arithmetic: the table of power thresholds that turns
m**i < 2**j into an index test, and the conversion of huge-integer
ratios num / 2**k to floats.
"""

from __future__ import annotations


def _coefficient_limits(m: int, k: int) -> list[int]:
    """lim[j] = least i with m**i >= 2**j, for j = 0..k, so that the
    coefficient test m**k2 < 2**j reads k2 < lim[j]."""
    lim = []
    i = 0
    power = 1
    for j in range(k + 1):
        while power < 1 << j:
            power *= m
            i += 1
        lim.append(i)
    return lim


def ratio_to_float(num: int, den_exponent: int) -> float:
    """Round num / 2**den_exponent to the nearest double.

    Int true division rounds the exact ratio once, to nearest-even, at
    any width of num and into the subnormal range; results below it
    underflow to 0.0, and results too large for a double raise
    OverflowError.
    """
    if num < 0:
        raise ValueError("num must be non-negative")
    if den_exponent < 0:
        raise ValueError("den_exponent must be non-negative")
    return num / (1 << den_exponent)
