"""Linear diophantine view of composed map steps.

A parity vector of length k with k2 odd steps turns the relation
b * T^(k)(n) = a * n + c into the two-unknown equation c = b*y - a*x
with a = m**k2 and b = 2**k coprime.  This module folds a vector into
that equation and solves it (the least non-negative x is the class that
generates the vector), tells rising from falling vectors by a against b,
and finds cycles as the integral fixed points x = c / (b - a) of words,
joining the residues of their two halves (a meet in the middle).
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
# find_cycles steps the starts |x| < _SMALL and joins the rest only in the
# window of their product identity.  Sweep of in-process find_cycles for
# m=3/5/7 (medians of interleaved runs, 2-core Xeon VM), in ms: at k_max=20,
# 1 5.3/2.4/1.1, 16 .54/.35/.29, 32 .47/.33/.33, 40 .47/.36/.38, 64
# .58/.48/.50; at 28, 1 68/39/13, 16 8.2/7.1/4.7, 32 4.8/1.9/1.9, 40
# 3.7/1.8/1.9, 64 4.3/2.2/2.2; at 36, 16 154/96/38, 32 87/27/28, 40 67/28/28.
_SMALL = 40


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


def _returns(p: MapParams, x: int, k_max: int) -> bool:
    """Whether x comes back to itself within k_max steps."""
    v = x
    for _ in range(k_max):
        if (v := step(p, v)) == x:
            return True
    return False


def find_cycles(p: MapParams, k_max: int) -> list[Cycle]:
    """All cycles whose parity vector has length at most k_max.

    Each element of a cycle of length t <= k_max is the integral fixed
    point c(w) / d, d = 2**t - m**k2, of its own vector w of length t.
    Split w after h = t // 2 bits into u and v: c(w) = m**k2(v) * c(u) +
    2**h * c(v), and d is odd, so d divides c(w) exactly when
    c(v) = -m**k2(v) * 2**(-h) * c(u) mod |d|.  The half-words are folded
    once, grouped by odd count (a word of length L extends one of L - 1
    by a bit: c, or m*c + 2**(L-1)), and for each t and split (k2(u),
    k2(v)) the residues of the c(v) are joined to those of the c(u).
    Where |d| = 1 every residue is 0 and every pair a hit.

    Only the pairs with (s*m - 1)**k2 <= s**k2 * 2**t <= (s*m + 1)**k2,
    s = _SMALL, are joined; every start |x| < s is stepped up to k_max
    times instead, and is a candidate if it returns to itself:
    - over a period of a cycle the ratios x' / x multiply to 1, an even
      element giving 1/2 and an odd one (m + 1/x) / 2, so 2**t is the
      product of m + 1/x over the k2 odd elements;
    - a cycle keeps one sign, and 0 is its own cycle, so where every odd
      |x| >= s each factor lies in [m - 1/s, m + 1/s], and 2**t between
      their k2-th powers;
    - a word that runs a cycle r times raises both sides to the power r;
    - every other cycle has an odd |x| < s, which stepping finds.
    Each cycle is closed once, by iteration from its first candidate, and
    rotated to canonical form; its other candidates are skipped.  Sorted
    by (length, start).  Only the half-words up to the longest half,
    t - t // 2, of a pair in the window are folded, and none where no pair
    is in it (m=5 and m=7 up to t = 36).  Memory grows as the longest
    folds, at most 2**(k_max / 2), and so does time: the window leaves few
    k2 for each t.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if k_max > MAX_CYCLE_SEARCH_K:
        raise ValueError(
            f"k_max={k_max} exceeds the enumeration budget ({MAX_CYCLE_SEARCH_K})")
    s, m, pow_m = _SMALL, p.m, [p.m**q for q in range(k_max + 1)]
    pairs = [(t, k2) for t in range(1, k_max + 1) for k2 in range(t + 1)
             if (s * m - 1)**k2 <= s**k2 << t <= (s * m + 1)**k2]
    # folds[L][k]: the offsets c of the words of length L with k odd bits,
    # to the longest half, t - t // 2, of a pair in the window
    folds = [[[0]]]
    for L in range(1, max((t - t // 2 for t, _ in pairs), default=0) + 1):
        level = [[] for _ in range(L + 1)]
        for k, cs in enumerate(folds[-1]):  # bit L - 1 even, then odd
            level[k] += cs
            level[k + 1] += [m * c + (1 << (L - 1)) for c in cs]
        folds.append(level)
    candidates = {x for x in range(1 - s, s) if _returns(p, x, k_max)}
    for t, k2 in pairs:
        h = t // 2
        d = (1 << t) - pow_m[k2]  # even minus odd: odd, never 0
        n, inv = abs(d), pow(2, -h, abs(d))
        for ku in range(max(0, k2 - t + h), min(h, k2) + 1):
            a_v, us, vs = pow_m[k2 - ku], folds[h][ku], folds[t - h][k2 - ku]
            f = -a_v * inv % n
            keys = {cv % n for cv in vs}.intersection([f * cu % n for cu in us])
            if keys:
                candidates.update((a_v * cu + (cv << h)) // d
                                  for cu in us if (r := f * cu % n) in keys
                                  for cv in vs if cv % n == r)
    cycles, closed = [], set()
    for x in candidates:
        if x not in closed:
            cycles.append(_close_cycle(p, x, k_max))
            closed.update(cycles[-1])
    return [Cycle(v) for v in sorted(cycles, key=lambda v: (len(v), v[0]))]
