"""Streaming big-integer recursion for the stopping-time table.

Column k of the table counts, out of any 2**k consecutive starts, how
many have a given number i of odd steps in their first k parity bits
while never having seen the slope m**i' / 2**j drop below 1.  Columns
follow the Pascal rule value(i,k) = value(i-1,k-1) + value(i,k-1), with
one twist: a cell whose row fails m**i > 2**k is zeroed.  Because
consecutive powers of m are at least a factor 3 apart, at most one row
can fail per column; its would-be value is the column's "shaded" count,
the number of starts whose slope drops below 1 at exactly this k.

Only the current column is kept in memory, so the recursion streams to
large k.  Every entry is an exact integer; floats appear only in the
emitted distribution values F = N / 2**k.

A column may carry a row cap, top.  Row i depends only on rows i-1 and
i of the column before, so rows above top never feed a row at or below
it, and a series to k_max needs no row above the last one it can shade,
i_top = max{i : m**i < 2**k_max}.  density_series keeps only that band;
its totals come from the doubling identity N(k) = 2*N(k-1) - shaded(k)
instead of a sum over the column.  Once row i_top is shaded the band is
empty: every later column up to k_max shades nothing and N doubles.  An
uncapped column keeps every row and sums them for N; it is the full
reference the tests compare the band against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from operator import add
from typing import Iterator, NamedTuple

from .bigmath import _coefficient_limits, ratio_to_float
from .trajectory import MapParams


class ShadedCell(NamedTuple):
    row: int
    count: int


@dataclass(frozen=True)
class DensityColumn:
    """One table column: contiguous nonzero rows i_min..min(k, top)
    plus the cell zeroed at this k, if any.

    top caps the stored rows; None keeps the whole column.  N is always
    the exact total of the whole column: the sum of the rows when
    uncapped, carried by the doubling identity when capped (the rows
    above the cap are not stored, but they are not zero).  _m_pow is
    m**i_min, carried so that the power test of the next column costs
    one multiply each time i_min advances.
    """

    m: int
    k: int
    i_min: int
    rows: tuple[int, ...]
    shaded: ShadedCell | None
    N: int
    top: int | None = None
    _m_pow: int = field(default=1, repr=False)

    def row(self, i: int) -> int:
        """Stored count for row i; zeroed, never-populated and unstored
        rows above the cap read 0."""
        if self.i_min <= i < self.i_min + len(self.rows):
            return self.rows[i - self.i_min]
        return 0

    def items(self) -> list[tuple[int, int]]:
        return [(self.i_min + t, v) for t, v in enumerate(self.rows)]

    @property
    def shaded_count(self) -> int:
        return self.shaded.count if self.shaded else 0


@dataclass(frozen=True)
class DensityPoint:
    """Snapshot of the distribution at one k.

    F_new counts starts whose slope stays >= 1 through all k steps
    (strict survival); F_terras additionally counts those whose slope
    first drops exactly at k, i.e. the shaded cell; G = 1 - F_new.
    """

    k: int
    N: int
    shaded_count: int
    F_new: float
    F_terras: float
    G: float


@dataclass(frozen=True)
class DensitySeries:
    m: int
    points: list[DensityPoint]


# Series cost grows about as k**3: a stride-1 series to k = 24 000 took
# 66-82 s and 110 MB on one core of a Xeon VM, so a run to the bound
# finishes in minutes, not hours.
MAX_SERIES_K = 24_000
MAX_BINOMIAL_K = 10_000


def initial_column(p: MapParams) -> DensityColumn:
    """Column k = 0: a single survivor row (0 iterations reject nobody)."""
    return DensityColumn(m=p.m, k=0, i_min=0, rows=(1,), shaded=None, N=1)


def next_column(col: DensityColumn) -> DensityColumn:
    """Advance the recursion by one column.

    Candidate rows run from the old i_min up to the new k, or up to top
    for a capped column; each candidate is the Pascal sum of its two
    parents (absent parents read 0, so candidate i_min equals the old
    row i_min, and a new highest candidate equals the old highest row,
    which in an uncapped column is the all-odd row and stays 1 forever).
    Candidate i_min is then the only row that can fail the exact power
    test m**i > 2**k: if it does, it becomes the shaded cell and is
    dropped.

    An uncapped column sums its rows for N, leaving the doubling
    identity N(k) = 2*N(k-1) - shaded(k) as an independent cross-check.
    A capped column does not store every row, so it takes N from that
    identity.  Once its band is empty it shades nothing and N doubles,
    which holds only while row top + 1 still passes the power test; a
    step past that point raises ValueError.
    """
    m = col.m
    k = col.k + 1
    old = col.rows
    i_min = col.i_min
    m_pow = col._m_pow
    # m**i_min < 2**k exactly when its bit length is k at most (it is odd)
    crossed = m_pow.bit_length() <= k
    if not old:
        if crossed:
            raise ValueError(f"row {i_min} above the band (top={col.top}) "
                             f"would be shaded at k={k}")
        return replace(col, k=k, shaded=None, N=2 * col.N)
    cand = [old[0], *map(add, old, islice(old, 1, None))]
    if col.top is None or i_min + len(old) <= col.top:
        cand.append(old[-1])
    shaded = None
    if crossed:
        if cand[0] > 0:
            shaded = ShadedCell(row=i_min, count=cand[0])
        cand = cand[1:]
        i_min += 1
        m_pow *= m
    if col.top is None:
        n = sum(cand)
    else:
        n = 2 * col.N - (shaded.count if shaded else 0)
    return DensityColumn(m=m, k=k, i_min=i_min, rows=tuple(cand),
                         shaded=shaded, N=n, top=col.top, _m_pow=m_pow)


def _point(col: DensityColumn) -> DensityPoint:
    f_new = ratio_to_float(col.N, col.k)
    f_terras = ratio_to_float(col.N + col.shaded_count, col.k)
    return DensityPoint(k=col.k, N=col.N, shaded_count=col.shaded_count,
                        F_new=f_new, F_terras=f_terras, G=1.0 - f_new)


def _points(p: MapParams, k_max: int, stride: int = 1) -> Iterator[DensityPoint]:
    """The points of density_series(p, k_max, stride), one at a time:
    each column is computed when the next point is asked for, so a
    caller that writes points as they come holds one column.  The
    arguments are checked on the call, before the first point."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if k_max > MAX_SERIES_K:
        raise ValueError(f"k_max={k_max} exceeds the practical bound {MAX_SERIES_K}")
    if stride < 1:
        raise ValueError("stride must be positive")
    # the last row a column k <= k_max can shade: the largest i with
    # m**i < 2**k_max, or 0 when there is none (k_max = 0)
    top = max(_coefficient_limits(p.m, k_max)[k_max] - 1, 0)

    def walk(col: DensityColumn) -> Iterator[DensityPoint]:
        yield _point(col)
        for k in range(1, k_max + 1):
            col = next_column(col)
            if k % stride == 0 or k == k_max:
                yield _point(col)

    return walk(replace(initial_column(p), top=top))


def density_series(p: MapParams, k_max: int, stride: int = 1) -> DensitySeries:
    """Run the recursion to k_max, emitting a point at every multiple of
    stride and at k_max itself (k = 0 is always emitted).  Only the band
    of rows up to the last one shadeable by k_max is computed."""
    return DensitySeries(m=p.m, points=list(_points(p, k_max, stride)))


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
