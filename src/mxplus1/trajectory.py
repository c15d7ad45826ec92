"""The generalized mx+1 map and its bookkeeping.

T(n) = n/2 for even n and (m*n + 1)/2 for odd n, with odd m >= 3 (m = 3
is the 3x+1 map, m = 5 the 5x+1 map).  Besides plain iteration this
module extracts parity vectors and computes both stopping-time notions,
the first actual value drop and the first coefficient drop, from one
walk.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MapParams:
    """Multiplier of the map: odd, at least 3."""

    m: int = 3

    def __post_init__(self) -> None:
        if self.m < 3 or self.m % 2 == 0:
            raise ValueError(f"m must be an odd integer >= 3, got {self.m}")


T3 = MapParams(3)
T5 = MapParams(5)


@dataclass(frozen=True)
class Trajectory:
    """A start value followed by its successive images under the map."""

    values: tuple[int, ...]

    @property
    def start(self) -> int:
        return self.values[0]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ParityVector:
    """0/1 record of the parities seen along the first k steps.

    bits[j] is the parity of the j-th trajectory value; k2 counts the
    odd (multiplying) steps and k1 = k - k2 the halving steps.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("parity bits must be 0 or 1")

    @property
    def k(self) -> int:
        return len(self.bits)

    @property
    def k2(self) -> int:
        return sum(self.bits)

    @property
    def k1(self) -> int:
        return self.k - self.k2

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class StoppingTimeResult:
    """First qualifying step index, or proof of none within the cap."""

    k: int | None
    cap: int

    @property
    def found(self) -> bool:
        return self.k is not None

    def __str__(self) -> str:
        return f"k={self.k}" if self.found else f"exceeded cap {self.cap}"


def step(p: MapParams, n: int) -> int:
    """One application of the map.  Negative n is allowed; parity is the
    least non-negative residue mod 2, so -5 is odd and steps to -7."""
    if n % 2 == 0:
        return n // 2
    return (p.m * n + 1) // 2


def iterate(p: MapParams, n: int, k: int) -> Trajectory:
    """Trajectory of length k+1 starting at n (k = 0 gives just (n,))."""
    if k < 0:
        raise ValueError("k must be non-negative")
    values = [n]
    v = n
    for _ in range(k):
        v = step(p, v)
        values.append(v)
    return Trajectory(tuple(values))


def _parity_code(m: int, n: int, k: int) -> int:
    """Parities of the first k trajectory values of n, packed: bit j of
    the result is the parity of the j-th value.  Python's & and >> on
    negative ints agree with % 2 and // 2, so negative n is exact."""
    code = 0
    v = n
    for j in range(k):
        if v & 1:
            code |= 1 << j
            v = (m * v + 1) >> 1
        else:
            v >>= 1
    return code


def parity_vector(p: MapParams, n: int, k: int) -> ParityVector:
    """Parities of the first k trajectory values of n."""
    if k < 0:
        raise ValueError("k must be non-negative")
    code = _parity_code(p.m, n, k)
    return ParityVector(tuple((code >> j) & 1 for j in range(k)))


def _first_drops(m: int, n: int, cap: int) -> tuple[int, int]:
    """First coefficient drop and first value drop of n within cap steps.

    Returns (fc, fa): fc is the least j in 1..cap whose first j parity
    bits give m**k2 < 2**j, fa the least j with T^(j)(n) < n, and 0
    means none within cap.  A value drop needs a coefficient drop, since
    T^(j)(n) = (m**k2 * n + c) / 2**j with c >= 0, so both are found
    once fa is, and the walk stops there.
    """
    if n < 1:
        raise ValueError("n must be >= 1 for stopping times")
    if cap < 1:
        raise ValueError("cap must be positive")
    fc = 0
    a = 1       # m**k2, carried until the coefficient drops
    v = n
    for j in range(1, cap + 1):
        if v & 1:
            v = (m * v + 1) >> 1
            if not fc:
                a *= m
        else:
            v >>= 1
        # a is odd, so a < 2**j exactly when its bit length is j at most
        if not fc and a.bit_length() <= j:
            fc = j
        if v < n:
            return fc, j
    return fc, 0


def stopping_time_actual(p: MapParams, n: int, cap: int) -> StoppingTimeResult:
    """Least j >= 1 with T^(j)(n) < n, searched up to cap steps.

    Defined for n >= 1 only.  The search is capped because it can
    diverge (n = 1 under m = 3 cycles forever; most n under m = 5).
    """
    return StoppingTimeResult(_first_drops(p.m, n, cap)[1] or None, cap)


def stopping_time_coefficient(p: MapParams, n: int, cap: int) -> StoppingTimeResult:
    """Least j >= 1 whose first j parity bits give m**k2 < 2**j.

    This is the slope criterion: it depends only on the parity vector,
    and it is necessary for an actual drop, so it never exceeds the
    actual stopping time when both are found.
    """
    return StoppingTimeResult(_first_drops(p.m, n, cap)[0] or None, cap)
