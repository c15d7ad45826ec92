"""Streaming big-integer recursion for the stopping-time table.

Column k of the table counts, out of any 2**k consecutive starts, how
many have a given number i of odd steps in their first k parity bits
while never having seen the slope m**i' / 2**j drop below 1.  Columns
follow the Pascal rule value(i,k) = value(i-1,k-1) + value(i,k-1), with
one twist: a cell whose row fails m**i > 2**k is zeroed.  Because
consecutive powers of m are at least a factor 3 apart, at most one row
can fail per column; its would-be value is the column's "shaded" count,
the number of starts whose slope drops below 1 at exactly this k.

next_column steps one whole column, summing its rows for N; it is the
reference the series is tested against.  The series walks the table
along its diagonals e = k - i instead, where the Pascal rule reads
cell(i,e) = cell(i-1,e) + cell(i,e-1): diagonal e is a running sum of
diagonal e - 1 over the rows still alive, and diagonal 0 is all ones,
the all-odd start of each row.  Row i dies on the first diagonal e with
m**i < 2**(i+e); its cell on diagonal e - 1 is its shaded count, at
k = i + e.  Rows die in order of i, so the shaded counts come out in k
order, each column's total from the doubling identity
N(k) = 2*N(k-1) - shaded(k), and only one diagonal is held.  A series
to k_max needs no row above the last one it can shade,
i_top = max{i : m**i < 2**k_max}.

Only the current column or diagonal is kept in memory, so the recursion
streams to large k.  Every entry is an exact integer; floats appear
only in the emitted distribution values F = N / 2**k.

With two cores a big band is cut at a row: a second process steps the
lower stripe along the same diagonals and feeds the upper stripe,
stepped here, its top row and its shaded counts.  Both stripes have
cells on diagonal 0, so both work from the first column.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass, field
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
    """One table column: contiguous nonzero rows i_min..k, their exact
    total N, and the cell zeroed at this k, if any.

    _m_pow is m**i_min, carried so that the power test of the next
    column costs one multiply each time i_min advances; 0 means not
    carried, and the next column computes it.  It takes no part in ==.
    """

    m: int
    k: int
    i_min: int
    rows: tuple[int, ...]
    shaded: ShadedCell | None
    N: int
    _m_pow: int = field(default=0, repr=False, compare=False)

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
    m_pow = col._m_pow or m**i_min
    cand = list(map(add, (0, *old), (*old, 0)))
    shaded = None
    # m**i_min < 2**k exactly when its bit length is k at most (it is odd)
    if m_pow.bit_length() <= k:
        shaded = ShadedCell(row=i_min, count=cand.pop(0))
        i_min += 1
        m_pow *= m
    return DensityColumn(m=m, k=k, i_min=i_min, rows=tuple(cand),
                         shaded=shaded, N=sum(cand), _m_pow=m_pow)


def _point(k: int, n: int, shaded: int) -> DensityPoint:
    f_new = ratio_to_float(n, k)
    return DensityPoint(k=k, N=n, shaded_count=shaded, F_new=f_new,
                        F_terras=ratio_to_float(n + shaded, k), G=1.0 - f_new)


# A band is split when its cost (see _split_row) reaches this many bits
# of addition: on a 2-core Xeon VM the stripe process took 35-50 ms to
# start and stop, multiprocessing's import included, and such a band
# 0.5-0.7 s.
SPLIT_MIN_COST = 5 * 10**9
_BATCH = 64  # diagonals per message from the stripe process


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


def _diagonals(lim: list[int], lo: int, hi: int, fed: Iterator[tuple]) -> Iterator[tuple]:
    """Step rows lo..hi - 1 of the band along the diagonals e = 1, 2, ...
    until all are shaded.  fed gives, per diagonal, row lo - 1 on it
    (the lower parent of row lo) and the shaded (k, count) pairs of the
    rows under lo; each step yields the same for the rows under hi: row
    hi - 1 on the diagonal, 0 once it is shaded, and the shaded pairs in
    k order."""
    diag = [1] * (hi - lo)  # diagonal 0: the all-odd start of each row
    i = lo  # the first live row
    e = 0
    while diag:
        e += 1
        low, shaded = next(fed)
        # rows die in order of i, on the first e with m**i < 2**(i + e)
        dead = 0
        while dead < len(diag) and lim[i + e + dead] > i + dead:
            dead += 1
        if dead:
            shaded = [*shaded, *zip(range(i + e, i + e + dead), diag[:dead])]
            i += dead
            diag = diag[dead:]
        if diag:
            diag[0] += low
            diag = list(accumulate(diag))
        yield (diag[-1] if diag else 0), shaded


def _lower_stripe(conn, parent_end, lim: list[int], split: int) -> None:
    """The stripe process: step rows 0..split - 1 until all are shaded,
    and send the steps of _diagonals, in batches ending with None."""
    parent_end.close()  # else a parent that dies leaves send blocked
    batch = []
    for step in _diagonals(lim, 0, split, repeat((0, ()))):
        batch.append(step)
        if len(batch) == _BATCH:
            conn.send(batch)
            batch = []
    conn.send(batch)
    conn.send(None)


def _points(p: MapParams, k_max: int, stride: int = 1) -> Iterator[DensityPoint]:
    """The points of density_series(p, k_max, stride), one at a time:
    the diagonals are stepped when the next point is asked for, so a
    caller that writes points as they come holds one diagonal.  The
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
        fed = repeat((0, ()))  # per diagonal: row split - 1, the lower stripe's shaded pairs
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
                                           args=(child, conn, lim, split))
            proc.start()
            child.close()
            fed = chain(chain.from_iterable(iter(conn.recv, None)), fed)

        def shadings() -> Iterator[int]:  # the shaded count of k = 1, 2, ...
            k = 0
            for _, shaded in _diagonals(lim, split, lim[k_max], fed):
                for k_i, count in shaded:
                    yield from repeat(0, k_i - k - 1)
                    yield count
                    k = k_i
            yield from repeat(0)

        n = 1
        try:
            yield _point(0, n, 0)
            for k, shaded in zip(range(1, k_max + 1), shadings()):
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
