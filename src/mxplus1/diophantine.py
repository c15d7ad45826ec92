"""Linear diophantine view of composed map steps.

A parity vector of length k with k2 odd steps turns the relation
b * T^(k)(n) = a * n + c into the two-unknown equation c = b*y - a*x
with a = m**k2 and b = 2**k coprime.  This module solves that equation,
whose least non-negative x is the residue class generating the vector,
classifies vectors as rising or falling by comparing a with b, and hunts
for cycles via the fixed-point condition x = c / (b - a).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .trajectory import MapParams, ParityVector, affine_of_vector, parity_vector, step


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
_SUBTREE_DEPTH = 12


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
    """The equation linking a start x to its k-step image y along w."""
    if w.k == 0:
        raise ValueError("vector must be non-empty")
    form = affine_of_vector(p, w)
    return DiophantineEq(a=form.a, b=form.b, c=form.c)


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


def cycle_candidate(p: MapParams, w: ParityVector) -> int | None:
    """Fixed point of w's composed map, if integral.

    x = y forces c = x*(b - a); when b - a divides c the quotient is the
    unique fixed point, and an integral fixed point realizes w as its
    own parity vector, so it closes under direct iteration.  Signed
    division matters: rising vectors give negative cycles.
    """
    eq = equation_of_vector(p, w)
    d = eq.b - eq.a  # b is even and a odd, so never 0
    if eq.c % d != 0:
        return None
    return eq.c // d


def _canonical_rotation(values: list[int]) -> tuple[int, ...]:
    pivot = min(range(len(values)), key=lambda t: (abs(values[t]), values[t]))
    return tuple(values[pivot:] + values[:pivot])


def _close_cycle(p: MapParams, x: int, k_max: int) -> tuple[int, ...]:
    values = [x]
    v = step(p, x)
    while v != x:
        values.append(v)
        v = step(p, v)
        if len(values) > k_max:
            raise RuntimeError(f"candidate {x} failed to close within {k_max} steps")
    return _canonical_rotation(values)


def _expand(m: int, pow_m: list[int], groups: list[list[int]], k2: int,
            depth: int, stop: int, candidates: set[int]) -> list[list[int]]:
    """Expand the parity-vector tree from `depth` to `stop`, one level at
    a time, and return the last level.

    groups[i] holds the offset numerators c of the nodes with k2 + i odd
    steps; a node at depth j has slope a = m**(k2 + i) over b = 2**j,
    and each integral fixed point c / (b - a) is added to candidates.
    """
    for j in range(depth + 1, stop + 1):
        pw = 1 << (j - 1)
        raised = [[m * x + pw for x in cs] for cs in groups]
        groups = [even + odd for even, odd in zip(groups + [[]], [[]] + raised)]
        for i, cs in enumerate(groups):
            d = (1 << j) - pow_m[k2 + i]  # even minus odd, never 0
            candidates.update(x // d for x in cs if x % d == 0)
    return groups


def find_cycles(p: MapParams, k_max: int) -> list[Cycle]:
    """All cycles whose parity vector has length at most k_max.

    Walks the full binary tree of parity vectors once, carrying the
    offset numerator c and the odd-step count k2 incrementally (the
    slope numerator a = m**k2 depends on k2 alone), and takes every
    integral fixed point as a candidate; candidates are closed by
    iteration, rotated to canonical form and deduplicated.  The same
    cycle is hit from every rotation and every whole multiple of its
    period, so deduplication is essential.  Sorted by (length, start).
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if k_max > MAX_CYCLE_SEARCH_K:
        raise ValueError(
            f"k_max={k_max} exceeds the enumeration budget ({MAX_CYCLE_SEARCH_K})")
    m = p.m
    pow_m = [m**q for q in range(k_max + 1)]
    candidates: set[int] = set()
    # The tree is expanded level by level once from the root to `top`,
    # then once from each node at that depth down to k_max, so no level
    # holds more than 2**max(top, _SUBTREE_DEPTH) values.
    top = max(k_max - _SUBTREE_DEPTH, 0)
    for k2, cs in enumerate(_expand(m, pow_m, [[0]], 0, 0, top, candidates)):
        for c in cs:
            _expand(m, pow_m, [[c]], k2, top, k_max, candidates)
    canon = {_close_cycle(p, x, k_max) for x in candidates}
    return [Cycle(v) for v in sorted(canon, key=lambda v: (len(v), v[0]))]
