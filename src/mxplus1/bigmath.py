"""Arbitrary-precision numeric foundations.

Counts live in plain Python ints, which are already unbounded, so this
module only adds the two operations the table recursion needs beyond
ordinary integer arithmetic: an exact ordering of m**i against 2**k, and
a bit-faithful conversion of huge-integer ratios num / 2**k to floats.
"""

from __future__ import annotations

import math

LESS, EQUAL, GREATER = -1, 0, 1


def cmp_pow(m: int, i: int, k: int) -> int:
    """Exact ordering of m**i versus 2**k: LESS, EQUAL or GREATER.

    m must be odd and >= 3, so m**i is a power of two only for i = 0;
    EQUAL is therefore possible only at i = k = 0.  The comparison is
    done on exact integers (via the bit length of m**i), never floats.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be an odd integer >= 3, got {m}")
    if i < 0 or k < 0:
        raise ValueError("exponents must be non-negative")
    if i == 0:
        return EQUAL if k == 0 else LESS
    # 2**(B-1) <= m**i < 2**B for B = bit_length(m**i), and the lower
    # bound is strict because m**i is odd, hence never a power of two.
    # B lies in ((b-1)*i, b*i] for b = bit_length(m), so m**i itself is
    # needed only for k inside that range.
    b = m.bit_length()
    if k <= (b - 1) * i:
        return GREATER
    if k >= b * i:
        return LESS
    return GREATER if (m**i).bit_length() > k else LESS


def ratio_to_float(num: int, den_exponent: int) -> float:
    """Round num / 2**den_exponent to the nearest double.

    Only the top 64 bits of num are fed to the float conversion, with a
    sticky bit folded into the lowest of them, so the result is the
    round-to-nearest-even double of the exact ratio no matter how wide
    num is, and is identical on every platform.  Values below the
    subnormal range underflow to 0.0 (and deep subnormal results may be
    off by one unit in the last place from double rounding; the ratios
    this artifact produces never get near that range).
    """
    if num < 0:
        raise ValueError("num must be non-negative")
    if den_exponent < 0:
        raise ValueError("den_exponent must be non-negative")
    if num == 0:
        return 0.0
    excess = num.bit_length() - 64
    if excess <= 0:
        return math.ldexp(num, -den_exponent)
    top = num >> excess
    if num & ((1 << excess) - 1):
        top |= 1
    return math.ldexp(top, excess - den_exponent)
