"""Linear diophantine view of composed map steps.

A parity vector of length k with k2 odd steps turns the relation
b * T^(k)(n) = a * n + c into the two-unknown equation c = b*y - a*x
with a = m**k2 and b = 2**k coprime.  This module folds a vector into
that equation and solves it (the least non-negative x is the class that
generates the vector), tells rising from falling vectors by a against b,
and hunts cycles via the fixed point x = c / (b - a) of Lyndon words.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .trajectory import MapParams, ParityVector, parity_vector, step


@dataclass(frozen=True)
class DiophantineEq:
    """c = b*y - a*x with a, b >= 1 coprime and c >= 0."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError("coefficients a and b must be positive")
        if self.c < 0:
            raise ValueError("constant c must be non-negative")


@dataclass(frozen=True)
class DiophantineSolution:
    """Particular solution plus the steps generating the full family
    (x0 + x_step*q, y0 + y_step*q) for every integer q."""

    x0: int
    y0: int
    x_step: int
    y_step: int

    def at(self, q: int) -> tuple[int, int]:
        return self.x0 + self.x_step * q, self.y0 + self.y_step * q


class Classification(enum.Enum):
    RISING = "rising"    # b < a: every start in the class grows
    FALLING = "falling"  # b > a: all but finitely many starts shrink


@dataclass(frozen=True)
class Cycle:
    """A closed trajectory with pairwise-distinct values, written from
    its smallest-magnitude element (ties broken toward the smaller)."""

    values: tuple[int, ...]

    @property
    def start(self) -> int:
        return self.values[0]

    @property
    def length(self) -> int:
        return len(self.values)


MAX_CYCLE_SEARCH_K = 28


def solve(eq: DiophantineEq) -> DiophantineSolution:
    """General solution of c = b*y - a*x for coprime a, b.

    The particular x0 is normalized to the least non-negative residue
    mod b, which makes the output canonical; any other representative
    differs by a whole number of family steps.
    """
    if math.gcd(eq.a, eq.b) != 1:
        raise ValueError(f"a={eq.a} and b={eq.b} must be coprime")
    x0 = (-eq.c * pow(eq.a, -1, eq.b)) % eq.b
    y0 = (eq.c + eq.a * x0) // eq.b
    return DiophantineSolution(x0=x0, y0=y0, x_step=eq.b, y_step=eq.a)


def equation_of_vector(p: MapParams, w: ParityVector) -> DiophantineEq:
    """The equation linking a start x to its k-step image y along w:
    b * T^(k)(x) = a*x + c for every x whose first k parity bits are w,
    with a = m**k2 (odd), b = 2**k and c >= 0, so gcd(a, b) = 1 and the
    composed map has slope a/b.  The exact fold starts from (a, c) =
    (1, 0); an odd bit at depth j sends a to m*a and c to m*c + 2**j.
    """
    if w.k == 0:
        raise ValueError("vector must be non-empty")
    m, a, c = p.m, 1, 0
    for j, bit in enumerate(w.bits):
        if bit:
            a, c = m * a, m * c + (1 << j)
    return DiophantineEq(a=a, b=1 << w.k, c=c)


def residue_of_vector(p: MapParams, w: ParityVector) -> int:
    """Least non-negative r mod 2**k whose class realizes the vector w.

    Every start n with vector w satisfies b * T^(k)(n) = a*n + c, so b
    divides a*n + c and n is the solver's x0 mod b = 2**k.  Each vector
    is realized by some start (Terras 1976), so x0's class is the
    unique one whose members all share w.
    """
    return solve(equation_of_vector(p, w)).x0


def _start_vector(p: MapParams, n: int,
                  k: int) -> tuple[ParityVector, DiophantineEq, int]:
    """The parity vector of n's first k steps, its equation and the
    residue class mod 2**k it comes from."""
    if k < 1:
        raise ValueError("k must be >= 1: an empty vector has no equation")
    w = parity_vector(p, n, k)
    eq = equation_of_vector(p, w)
    return w, eq, solve(eq).x0


def classify(eq: DiophantineEq) -> Classification:
    """Rising when b < a (slope above 1), falling when b > a."""
    if eq.a == eq.b:
        raise ValueError("a = b is not classified (empty vector only)")
    return Classification.RISING if eq.b < eq.a else Classification.FALLING


def _close_cycle(p: MapParams, x: int, k_max: int) -> tuple[int, ...]:
    """The cycle through x, from its element of least magnitude (ties
    toward the smaller)."""
    values = [x]
    while (v := step(p, values[-1])) != x:
        values.append(v)
        if len(values) > k_max:
            raise RuntimeError(f"candidate {x} failed to close within {k_max} steps")
    pivot = min(range(len(values)), key=lambda t: (abs(values[t]), values[t]))
    return tuple(values[pivot:] + values[:pivot])


def _walk(m: int, pow_m: list[int], k_max: int, found: set[int],
          t: int, c: int, k2: int, period: int, bits: int) -> None:
    """Depth first, add to found the integral fixed points of the Lyndon
    words among the prenecklaces of length t..k_max that extend a word.

    The word, of length t - 1, holds step j in bit j (bit 0 is a 0
    before it), k2 odd steps, the offset numerator c and the length
    `period` of its longest Lyndon prefix.  Its child of length t copies
    the bit `period` places back, and the loop goes on with it.  Where
    that bit is 0 the word may also take a 1 and is then a Lyndon word of
    length t (Fredricksen, Kessler and Maiorana): its fixed point
    c / (2**t - m**k2) is tested here, and one recursive call walks its
    extensions, so at most k_max + 1 calls are ever on the stack.
    """
    while t <= k_max:
        bit = 1 << t
        c1 = m * c + (bit >> 1)
        if bits >> (t - period) & 1:
            c, k2, bits = c1, k2 + 1, bits | bit
        else:
            d = bit - pow_m[k2 + 1]  # even minus odd, never 0
            if c1 % d == 0:
                found.add(c1 // d)
            _walk(m, pow_m, k_max, found, t + 1, c1, k2 + 1, t, bits | bit)
        t += 1


def find_cycles(p: MapParams, k_max: int) -> list[Cycle]:
    """All cycles whose parity vector has length at most k_max.

    A cycle's vector is primitive: were it u repeated, the map of u would
    share its unique fixed point, and the cycle would be |u| steps long.
    So exactly one rotation of it is a Lyndon word, whose integral fixed
    point is an element of the cycle.  One depth-first _walk collects
    these candidates; each is closed by iteration and rotated to
    canonical form.  Sorted by (length, start).
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if k_max > MAX_CYCLE_SEARCH_K:
        raise ValueError(
            f"k_max={k_max} exceeds the enumeration budget ({MAX_CYCLE_SEARCH_K})")
    pow_m = [p.m**q for q in range(k_max + 1)]
    candidates = {0}  # from 0, the one Lyndon word that does not end in 1
    _walk(p.m, pow_m, k_max, candidates, 1, 0, 0, 1, 0)
    canon = {_close_cycle(p, x, k_max) for x in candidates}
    return [Cycle(v) for v in sorted(canon, key=lambda v: (len(v), v[0]))]
