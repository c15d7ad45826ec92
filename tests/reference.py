"""Pure-integer references the package's fast paths are tested against.

- cmp_pow (with LESS, EQUAL, GREATER): the exact ordering of m**i
  against 2**k, which checks bigmath._coefficient_limits, the power
  table behind the series band and the oracle's slope test.
- initial_column and next_column (with DensityColumn, ShadedCell): the
  table stepped a whole column at a time, by its own bit-length power
  test, which checks the diagonal walk of density._diagonals behind
  density_series.
- binomial_reference (with MAX_BINOMIAL_K): the Pascal triangle with
  no zeroing, whose entries bound the table's.
- cycle_candidate: the fixed point of a parity vector from
  equation_of_vector's fold, which checks the fixed points that
  diophantine.find_cycles joins from half-words.
- _walk and lyndon_cycles: the cycle census from the Lyndon words alone,
  walked depth first with their own offset recurrence, which checks the
  meet in the middle of diophantine.find_cycles.
- scan_exact: oracle._scan_window's results from the scalar walk, start
  by start.

A reference may import mxplus1.trajectory and mxplus1.diophantine, but
nothing from mxplus1.density or mxplus1.bigmath: it must not be built on
the kernel or the power table it checks.

Not a test module: pytest collects only test_*.py files.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import NamedTuple

from mxplus1.diophantine import Cycle, _close_cycle, equation_of_vector
from mxplus1.trajectory import MapParams, ParityVector, _first_drops

LESS, EQUAL, GREATER = -1, 0, 1


def cmp_pow(m: int, i: int, k: int) -> int:
    """Exact ordering of m**i versus 2**k: LESS, EQUAL or GREATER.

    m must be odd and >= 3, so m**i is a power of two only for i = 0;
    EQUAL is therefore possible only at i = k = 0.  The comparison is
    done on exact integers, never floats.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be an odd integer >= 3, got {m}")
    if i < 0 or k < 0:
        raise ValueError("exponents must be non-negative")
    power, bound = m**i, 1 << k
    return LESS if power < bound else GREATER if power > bound else EQUAL


class ShadedCell(NamedTuple):
    row: int
    count: int


@dataclass(frozen=True)
class DensityColumn:
    """One table column: contiguous nonzero rows i_min..k, their exact
    total N, and the cell zeroed at this k, if any."""

    m: int
    k: int
    i_min: int
    rows: tuple[int, ...]
    shaded: ShadedCell | None
    N: int

    def row(self, i: int) -> int:
        """Count for row i; zeroed and never-populated rows read 0."""
        if self.i_min <= i < self.i_min + len(self.rows):
            return self.rows[i - self.i_min]
        return 0

    def items(self) -> list[tuple[int, int]]:
        return [(self.i_min + t, v) for t, v in enumerate(self.rows)]

    @property
    def shaded_count(self) -> int:
        return self.shaded.count if self.shaded else 0


MAX_BINOMIAL_K = 10_000


def initial_column(p: MapParams) -> DensityColumn:
    """Column k = 0: a single survivor row (0 iterations reject nobody)."""
    return DensityColumn(m=p.m, k=0, i_min=0, rows=(1,), shaded=None, N=1)


def next_column(col: DensityColumn) -> DensityColumn:
    """Advance the recursion by one column.

    Candidate rows run from the old i_min up to the new k; each is the
    Pascal sum of its two parents (absent parents read 0, so the new
    highest candidate equals the old highest row, the all-odd row, which
    stays 1 forever).  Candidate i_min is the only row that can fail the
    exact power test m**i > 2**k: if it does, it becomes the shaded cell
    and is dropped.  N is the sum of the rows, which leaves the doubling
    identity N(k) = 2*N(k-1) - shaded(k) as an independent cross-check.
    """
    m = col.m
    k = col.k + 1
    old = col.rows
    i_min = col.i_min
    cand = list(map(add, (0, *old), (*old, 0)))
    shaded = None
    # m**i_min < 2**k exactly when its bit length is k at most (it is odd)
    if (m**i_min).bit_length() <= k:
        shaded = ShadedCell(row=i_min, count=cand.pop(0))
        i_min += 1
    return DensityColumn(m=m, k=k, i_min=i_min, rows=tuple(cand),
                         shaded=shaded, N=sum(cand))


def binomial_reference(k_max: int) -> list[tuple[int, ...]]:
    """Pascal triangle columns 0..k_max via the plain two-parent sum,
    the same recursion as the table but with no zeroing.  Column sums
    are 2**k; entry (i, k) dominates the table's value at (i, k)."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if k_max > MAX_BINOMIAL_K:
        raise ValueError(f"k_max={k_max} exceeds the practical bound {MAX_BINOMIAL_K}")
    triangle = [(1,)]
    for _ in range(k_max):
        prev = triangle[-1]
        col = [1]
        for t in range(1, len(prev)):
            col.append(prev[t - 1] + prev[t])
        col.append(1)
        triangle.append(tuple(col))
    return triangle


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


def lyndon_cycles(p: MapParams, k_max: int) -> list[Cycle]:
    """All cycles whose parity vector has length at most k_max, as
    find_cycles gives them, from the Lyndon words of length 1..k_max.

    A cycle's vector is primitive: were it u repeated, the map of u would
    share its unique fixed point, and the cycle would be |u| steps long.
    So exactly one rotation of it is a Lyndon word, whose integral fixed
    point is an element of the cycle.  One depth-first _walk collects
    these candidates; each is closed by iteration and rotated to
    canonical form.  Sorted by (length, start).
    """
    pow_m = [p.m**q for q in range(k_max + 1)]
    candidates = {0}  # from 0, the one Lyndon word that does not end in 1
    _walk(p.m, pow_m, k_max, candidates, 1, 0, 0, 1, 0)
    canon = {_close_cycle(p, x, k_max) for x in candidates}
    return [Cycle(v) for v in sorted(canon, key=lambda v: (len(v), v[0]))]


def scan_exact(m: int, k: int, start: int, stop: int):
    """The four results of oracle._scan_window, start by start; exact
    for any m, k and start >= 1.

    Each start's first drops come from the scalar walk behind the public
    stopping times.
    """
    gt = ge = agt = 0
    mismatches = []
    for n in range(start, stop):
        fc, fa = _first_drops(m, n, k)
        if fc == 0:
            gt += 1
            ge += 1
        elif fc == k:
            ge += 1
        if fa == 0:
            agt += 1
        if (fa == 0) != (fc == 0):
            mismatches.append(n)
    return gt, ge, agt, mismatches
