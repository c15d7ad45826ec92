"""Streaming big-integer recursion for the stopping-time table.

Column k of the table counts, out of any 2**k consecutive starts, how
many have a given number i of odd steps in their first k parity bits
while never having seen the slope m**i' / 2**j drop below 1.  Columns
follow the Pascal rule value(i,k) = value(i-1,k-1) + value(i,k-1), with
one twist: a cell whose row fails m**i > 2**k is zeroed.  Because
consecutive powers of m are at least a factor 3 apart, at most one row
can fail per column; its would-be value is the column's "shaded" count,
the number of starts whose slope drops below 1 at exactly this k.

The series walks the table along its diagonals e = k - i, where the
Pascal rule reads cell(i,e) = cell(i-1,e) + cell(i,e-1): diagonal e is
a running sum of diagonal e - 1 over the rows still alive, and diagonal
0 is all ones, the all-odd start of each row.  Row i dies on the first
diagonal e with m**i < 2**(i+e); its cell on diagonal e - 1 is its
shaded count, at k = i + e.  Rows die in order of i, so the shaded
counts come out in k order, each column's total from the doubling
identity N(k) = 2*N(k-1) - shaded(k), and only one diagonal is held.
A series to k_max needs no row above the last one it can shade,
i_top = max{i : m**i < 2**k_max}.

Only the current diagonal is kept in memory, so the recursion streams
to large k.  Every entry is an exact integer; floats appear only in
the emitted distribution values F = N / 2**k.

With two or more usable cores and os.fork a big band is cut into a
chain of row stripes, one forked process each, at equal shares of its
cost.  Every stripe steps its rows along the same diagonals, fed the top
row of the stripe below through a pipe, and sends its shaded counts
straight to the calling process through another, which steps no row: it
reads one count a row from each stripe in turn, which is k order, and
writes the points.  Every stripe has cells on diagonal 0, so all work
from the first column.  Where os.fork does not exist the band runs
unsplit, as on one core.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import Iterator

from .bigmath import _coefficient_limits, ratio_to_float
from .trajectory import MapParams


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


# Series cost grows about as k**3: the m=3 table to k = 24 000 at stride
# 1000 took 30 s and 47 MB on one core of a Xeon VM, 20 s through the
# chain on two, so a run to the bound finishes in a minute, not hours.
MAX_SERIES_K = 24_000


def _point(k: int, n: int, shaded: int) -> DensityPoint:
    f_new = ratio_to_float(n, k)
    return DensityPoint(k=k, N=n, shaded_count=shaded, F_new=f_new,
                        F_terras=ratio_to_float(n + shaded, k), G=1.0 - f_new)


# A band is split when its cost (see _cuts) reaches this many bits of
# addition, and no stripe gets less than half of it: on a 2-core Xeon VM a
# chain of three stripe processes took 5 ms more than one process to start
# and stop (m=3, k_max=200, median of 31 in-process), and such a band
# 0.5-0.7 s.
SPLIT_MIN_COST = 5 * 10**9
# Diagonals per record from a stripe process: 16 to 256 took the same time
# within noise (the three table runs of perfbench, 2-core Xeon VM).
_BATCH = 64


def _usable_cores() -> int | None:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else os.cpu_count(), which is None if unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def _cuts(lim: list[int], top: int) -> list[int]:
    """The first rows of the stripes above the lowest, at equal shares of
    the band's cost (about j bits of addition per candidate of column j):
    one stripe more than usable cores, fewer where one would cost under
    SPLIT_MIN_COST // 2 (so a band under SPLIT_MIN_COST stays whole), and
    none on one core or where os.fork does not exist."""
    cost = [0] * (top + 2)  # per row, as differences
    for j in range(1, len(lim)):
        cost[lim[j - 1]] += j  # column j computes rows lim[j-1]..min(j, top)
        cost[min(j, top) + 1] -= j
    cum = list(accumulate(accumulate(cost)))
    cores = _usable_cores() or 1
    if cores < 2 or not hasattr(os, "fork"):
        return []
    stripes = min(cores + 1, cum[top] // (SPLIT_MIN_COST // 2))
    return [bisect_left(cum, cum[top] * s / stripes) for s in range(1, stripes)]


def _diagonals(lim: list[int], lo: int, hi: int, fed: Iterator[int]) -> Iterator[tuple]:
    """Step rows lo..hi - 1 of the band along the diagonals e = 1, 2, ...
    until all are shaded.  fed gives, per diagonal, row lo - 1 on it (the
    lower parent of row lo); each step yields row hi - 1 on the diagonal,
    0 once it is shaded, and the (k, count) pairs of the rows shaded on
    it, in k order."""
    diag = [1] * (hi - lo)  # diagonal 0: the all-odd start of each row
    i = lo  # the first live row
    e = 0
    while diag:
        e += 1
        low = next(fed)
        # rows die in order of i, on the first e with m**i < 2**(i + e)
        dead = 0
        while dead < len(diag) and lim[i + e + dead] > i + dead:
            dead += 1
        shaded = list(zip(range(i + e, i + e + dead), diag))
        del diag[:dead]
        i += dead
        if diag:
            diag[0] += low
            diag = list(accumulate(diag))
        yield (diag[-1] if diag else 0), shaded


def _stripe(lim: list[int], lo: int, hi: int, below, above, out) -> None:
    """A stripe process: step rows lo..hi - 1 until all are shaded, fed
    row lo - 1 by the stripe below, if any, and write per _BATCH diagonals
    row hi - 1 on each to the stripe above, if any, and the shaded pairs
    to the caller, each list as one pickle on its pipe file.  Row lo - 1
    lives as many diagonals as the stripe below steps, and each row is
    shaded once."""
    from pickle import dump  # loaded by _start_chain before the fork

    def send(file, items: list) -> None:
        dump(items, file)
        file.flush()

    received = _read(below, bisect_right(lim, lo - 1) - (lo - 1)) if below else ()
    # row lo - 1 on each diagonal it lives, then 0
    steps = _diagonals(lim, lo, hi, chain(received, repeat(0)))
    for batch in iter(lambda: list(islice(steps, _BATCH)), []):
        if above:
            send(above, [value for value, _ in batch])
        pairs = [pair for _, shaded in batch for pair in shaded]
        if pairs:
            send(out, pairs)


def _read(file, n: int) -> Iterator:
    """The first n items of the lists pickled to file, read as asked for;
    chain drops each list before the next is loaded."""
    from pickle import load
    return islice(chain.from_iterable(map(load, repeat(file))), n)


def _start_chain(lim: list[int], bounds: list[int], stripes: list[tuple]) -> None:
    """Fork one stripe process per pair of consecutive bounds, each fed by
    the one below, and append (pid, stream of shaded pairs, rows) to
    stripes as it starts, so that a failed start leaves none unlisted.
    A stripe leaves only by os._exit, never by the caller's finally
    blocks, atexit handlers or buffered output: with 0 when it is done,
    1 after its traceback on an error, and 1 quietly when a neighbour is
    gone, even within a record, or on an interrupt: the caller reports
    those."""
    import pickle  # only here, and before the forks: the stripes inherit it
    below = None
    for lo, hi in zip(bounds, bounds[1:]):
        for std in (sys.stdout, sys.stderr):
            try:
                std.flush()  # else a stripe would hold the caller's unwritten output
            except (AttributeError, ValueError):  # None or closed, as multiprocessing allows
                pass
        # each pipe's read and write ends as buffered binary files
        up, above = map(open, os.pipe(), ("rb", "wb")) if hi < bounds[-1] else (None, None)
        stream, out = map(open, os.pipe(), ("rb", "wb"))
        shut = [file for _, file, _ in stripes] + [file for file in (stream, up) if file]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                for file in shut:
                    file.close()  # else a reader that dies leaves a write blocked
                _stripe(lim, lo, hi, below, above, out)
                code = 0
            except (EOFError, BrokenPipeError, pickle.UnpicklingError):
                pass  # a neighbour is gone, stopped with the chain or dead
            except Exception:
                import traceback
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        for file in (below, above, out):
            if file:
                file.close()
        stripes.append((pid, stream, hi - lo))
        below = up


def _stop(pid: int, stream) -> int:
    """Close a stripe's stream, stop its process and reap it: its exit
    code, or minus the signal that ended it."""
    from signal import SIGTERM
    stream.close()
    os.kill(pid, SIGTERM)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _received(pid: int, stream, rows: int) -> Iterator[tuple]:
    """The shaded pairs a stripe process sends, one per row.  A stream
    that ends short is closed here, and its stripe stopped."""
    from pickle import UnpicklingError
    try:
        yield from _read(stream, rows)
    except (EOFError, UnpicklingError) as exc:
        raise RuntimeError(f"the stripe process exited with code {_stop(pid, stream)}") from exc


def _points(p: MapParams, k_max: int, stride: int = 1) -> Iterator[DensityPoint]:
    """The points of density_series(p, k_max, stride), one at a time:
    the diagonals are stepped when the next point is asked for, so a
    caller that writes points as they come holds at most one diagonal,
    and none when the band runs as a chain of stripe processes.  The
    arguments are checked on the call, before the first point; the
    stripe processes, if any, start with the first point and stop when
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
    cuts = _cuts(lim, top)

    def walk() -> Iterator[DensityPoint]:
        stripes = []
        try:
            if cuts:
                _start_chain(lim, [0, *cuts, lim[k_max]], stripes)
                runs = [_received(*stripe) for stripe in stripes]
            else:
                runs = (shaded for _, shaded in _diagonals(lim, 0, lim[k_max], repeat(0)))
            # the shaded (k, count) pairs in k order; every other k shades 0
            pairs = chain(chain.from_iterable(runs), [(k_max + 1, 0)])
            n, k_i, count = 1, 0, 0
            yield _point(0, n, 0)
            for k in range(1, k_max + 1):
                if k > k_i:
                    k_i, count = next(pairs)
                shaded = count if k == k_i else 0
                n = 2 * n - shaded
                if k % stride == 0 or k == k_max:
                    yield _point(k, n, shaded)
        finally:
            # top down, so that no stripe is stopped within a record to a
            # live one; a stripe whose stream is closed was stopped already
            for pid, stream, _ in reversed(stripes):
                if not stream.closed:
                    _stop(pid, stream)

    return walk()


def density_series(p: MapParams, k_max: int, stride: int = 1) -> DensitySeries:
    """Run the recursion to k_max, emitting a point at every multiple of
    stride and at k_max itself (k = 0 is always emitted).  Only the band
    of rows up to the last one shadeable by k_max is computed."""
    return DensitySeries(m=p.m, points=list(_points(p, k_max, stride)))
