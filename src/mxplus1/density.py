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

With two cores a big band is cut at a row: a second process steps the
lower stripe and feeds its top row, and its shaded counts, to the upper
stripe stepped here.  At most one row shades per column, so a column's
shaded count is the sum of the two stripes' and N still comes from the
doubling identity.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, repeat
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
    one multiply each time i_min advances; 0 means not carried, and the
    next column computes it.  It takes no part in ==.
    """

    m: int
    k: int
    i_min: int
    rows: tuple[int, ...]
    shaded: ShadedCell | None
    N: int
    top: int | None = None
    _m_pow: int = field(default=0, repr=False, compare=False)

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


def next_column(col: DensityColumn, below: int = 0) -> DensityColumn:
    """Advance the recursion by one column.

    Candidate rows run from the old i_min up to the new k, or up to top
    for a capped column; each candidate is the Pascal sum of its two
    parents (absent parents read 0, so a new highest candidate equals
    the old highest row, which in an uncapped column is the all-odd row
    and stays 1 forever).  The lower parent of candidate i_min, row
    i_min - 1 of the column before, is passed as below: it is zeroed or
    absent, so 0, except for a stripe cut from the rows under it (see
    _points).  Candidate i_min is then the only row that can fail the
    exact power test m**i > 2**k: if it does, it becomes the shaded cell
    and is dropped.

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
    m_pow = col._m_pow or m**i_min
    # m**i_min < 2**k exactly when its bit length is k at most (it is odd)
    crossed = m_pow.bit_length() <= k
    if not old and not below:
        if crossed:
            raise ValueError(f"row {i_min} above the band (top={col.top}) "
                             f"would be shaded at k={k}")
        return replace(col, k=k, shaded=None, N=2 * col.N)
    cand = list(map(add, (below, *old), (*old, 0)))
    if col.top is not None and i_min + len(old) > col.top:
        cand.pop()
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


def _point(k: int, n: int, shaded: int) -> DensityPoint:
    f_new = ratio_to_float(n, k)
    return DensityPoint(k=k, N=n, shaded_count=shaded, F_new=f_new,
                        F_terras=ratio_to_float(n + shaded, k), G=1.0 - f_new)


# A band is split when its cost (see _split_row) reaches this many bits
# of addition: on a 2-core Xeon VM the stripe process took 35-50 ms to
# start and stop, multiprocessing's import included, and such a band
# 0.5-0.7 s.
SPLIT_MIN_COST = 5 * 10**9
_BATCH = 64  # columns per message from the stripe process


def _split_row(lim: list[int], top: int) -> int:
    """The first row of the upper stripe, where the band's cost (about j
    bits of addition per candidate of column j) is halved: near 0.79 *
    top for m = 3 and 5.  0, no lower stripe, on one core or a small band."""
    cost = [0] * (top + 2)  # per row, as differences
    for j in range(1, len(lim)):
        cost[lim[j - 1]] += j  # column j computes rows lim[j-1]..min(j, top)
        cost[min(j, top) + 1] -= j
    cum = list(accumulate(accumulate(cost)))
    if (os.cpu_count() or 1) < 2 or cum[top] < SPLIT_MIN_COST:
        return 0
    return max(bisect_left(cum, cum[top] / 2), 1)


def _lower_stripe(conn, parent_end, p: MapParams, split: int) -> None:
    """The stripe process: step rows 0..split - 1 until all are shaded,
    and send, for each column k, row split - 1 of column k - 1 (the
    lower parent of row split) and the stripe's shaded count at k, in
    batches ending with None."""
    parent_end.close()  # else a parent that dies leaves send blocked
    col = replace(initial_column(p), top=split - 1)
    batch = []
    while col.rows:
        below = col.row(split - 1)
        col = next_column(col)
        batch.append((below, col.shaded_count))
        if len(batch) == _BATCH or not col.rows:
            conn.send(batch)
            batch = []
    conn.send(None)


def _points(p: MapParams, k_max: int, stride: int = 1) -> Iterator[DensityPoint]:
    """The points of density_series(p, k_max, stride), one at a time:
    each column is computed when the next point is asked for, so a
    caller that writes points as they come holds one column.  The
    arguments are checked on the call, before the first point; the
    stripe process, if any, starts with the first point and stops when
    the generator is exhausted or closed."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if k_max > MAX_SERIES_K:
        raise ValueError(f"k_max={k_max} exceeds the practical bound {MAX_SERIES_K}")
    if stride < 1:
        raise ValueError("stride must be positive")
    lim = _coefficient_limits(p.m, k_max)
    # the last row a column k <= k_max can shade: the largest i with
    # m**i < 2**k_max, or 0 when there is none (k_max = 0)
    top = max(lim[k_max] - 1, 0)
    split = _split_row(lim, top)

    def walk() -> Iterator[DensityPoint]:
        col = replace(initial_column(p), top=top)
        # per column: the lower parent of row split, the lower stripe's shaded count
        fed = repeat((0, 0))
        proc = None
        if split:
            # The platform's default start method, as the oracle's pool:
            # fork on Linux, which starts in milliseconds.  spawn also
            # re-imports the main module, which for perfbench's op.py
            # means numpy: 1.6-2.1 s more CPU per table pass on a 2-core
            # Xeon VM.
            import multiprocessing  # only here: its import costs 38 ms
            conn, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_lower_stripe, daemon=True,
                                           args=(child, conn, p, split))
            proc.start()
            child.close()
            col = replace(col, i_min=split, rows=())  # rows split..top, none born yet
            fed = chain(chain.from_iterable(iter(conn.recv, None)), fed)
        n = 1
        try:
            yield _point(0, n, 0)
            for k in range(1, k_max + 1):
                below, shaded = next(fed)
                col = next_column(col, below)
                shaded += col.shaded_count
                n = 2 * n - shaded
                if k % stride == 0 or k == k_max:
                    yield _point(k, n, shaded)
        except (EOFError, OSError) as exc:
            proc.join()
            raise RuntimeError("the stripe process exited with code "
                               f"{proc.exitcode}") from exc
        finally:
            if proc:
                proc.terminate()
                proc.join()

    return walk()


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
