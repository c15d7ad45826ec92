"""Brute-force verification of the table by direct iteration.

The table's totals claim that any window of 2**k consecutive starts
contains exactly N survivors of the slope criterion.  This module checks
that claim the hard way: iterate every start in a window, track the
first coefficient drop (m**k2 < 2**j) and the first actual value drop
(T^(j)(n) < n), and tally.  Counting is chunked; chunks are summed, so
the result is bit-identical for any chunking or worker count.

Per chunk there is a vectorized int64 path and an exact big-integer
path.  The fast path is used only when a conservative bound proves that
no intermediate value can overflow 64-bit arithmetic; otherwise the
exact path runs.  Both produce identical tallies wherever both apply.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .density import density_series
from .trajectory import MapParams

MAX_ORACLE_K = 26
_DEFAULT_CHUNK = 1 << 16
_INT64_HEADROOM = 1 << 62


@dataclass(frozen=True)
class OracleReport:
    """Window tallies next to the table total they must reproduce.

    count_coefficient_gt counts starts with no coefficient drop within
    k steps, count_coefficient_ge those with none within k-1 steps, and
    count_actual_gt those whose value never sinks below the start
    within k steps.
    """

    m: int
    k: int
    offset: int
    table_N: int
    count_coefficient_gt: int
    count_coefficient_ge: int
    count_actual_gt: int

    @property
    def discrepancy(self) -> int:
        return self.count_actual_gt - self.count_coefficient_gt

    @property
    def matches_table(self) -> bool:
        return self.count_coefficient_gt == self.table_N


def _int64_safe(m: int, k: int, stop: int) -> bool:
    # Largest intermediate from a start below `stop` is under
    # (stop+1) * (m/2)**k; the step computes m*v + 1 before halving.
    bound = ((stop + 1) * m**k >> k) + 1
    return m * bound + 1 < _INT64_HEADROOM and m**k < _INT64_HEADROOM


def _coefficient_limits(m: int, k: int) -> list[int]:
    """lim[j] = least i with m**i >= 2**j, for j = 0..k, so that the
    coefficient test m**k2 < 2**j reads k2 < lim[j]."""
    lim = []
    i = 0
    power = 1
    for j in range(k + 1):
        while power < 1 << j:
            power *= m
            i += 1
        lim.append(i)
    return lim


def _scan_fast(m: int, k: int, start: int, stop: int):
    """Vectorized scan of one chunk, with the same tallies as _scan_exact.

    Only unsettled starts are stepped: a start is settled once both its
    coefficient drop and its actual drop are found, and from then on it
    adds to no tally (a coefficient drop before step k counts toward
    neither gt nor ge).  The live arrays are compacted whenever they
    have halved, but not after the last step, where a coefficient drop
    at step k still counts toward ge.  Boolean compaction keeps order,
    so the mismatches stay increasing.
    """
    lim = _coefficient_limits(m, k)
    n0 = np.arange(start, stop, dtype=np.int64)
    v = n0.copy()
    # odd-step counts and first-drop steps (0 = none yet); k <= 26 fits int8
    k2 = np.zeros(n0.shape, dtype=np.int8)
    fc = np.zeros(n0.shape, dtype=np.int8)
    fa = np.zeros(n0.shape, dtype=np.int8)
    for j in range(1, k + 1):
        odd = (v & 1).astype(bool)
        k2 += odd
        v = np.where(odd, (m * v + 1) >> 1, v >> 1)
        np.putmask(fc, (fc == 0) & (k2 < lim[j]), j)
        np.putmask(fa, (fa == 0) & (v < n0), j)
        if j < k:
            live = (fc == 0) | (fa == 0)
            if 2 * np.count_nonzero(live) <= n0.size:
                n0, v, k2, fc, fa = n0[live], v[live], k2[live], fc[live], fa[live]
    gt = int(np.count_nonzero(fc == 0))
    ge = gt + int(np.count_nonzero(fc == k))
    agt = int(np.count_nonzero(fa == 0))
    mism = n0[(fc == 0) != (fa == 0)].tolist()
    return gt, ge, agt, mism


def _scan_exact(m: int, k: int, start: int, stop: int):
    """Pure-integer reference scan; exact for any m, k, offset."""
    gt = ge = agt = 0
    mismatches = []
    for n in range(start, stop):
        v = n
        a = 1
        b = 1
        fc = 0
        fa = 0
        for j in range(1, k + 1):
            if v & 1:
                a *= m
                v = (m * v + 1) >> 1
            else:
                v >>= 1
            b <<= 1
            if fc == 0 and a < b:
                fc = j
            if fa == 0 and v < n:
                fa = j
            if fc and fa:
                break
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


def _scan_chunk(args: tuple[int, int, int, int]):
    m, k, start, stop = args
    scan = _scan_fast if _int64_safe(m, k, stop) else _scan_exact
    return scan(m, k, start, stop)


def _chunks(offset: int, width: int, chunk_size: int) -> list[tuple[int, int]]:
    spans = []
    start = offset
    end = offset + width
    while start < end:
        stop = min(start + chunk_size, end)
        spans.append((start, stop))
        start = stop
    return spans


def _validate(k: int, offset: int, jobs: int, chunk_size: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if k > MAX_ORACLE_K:
        raise ValueError(f"k={k} exceeds the brute-force budget ({MAX_ORACLE_K})")
    if offset < 1:
        raise ValueError("offset must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")


def _run_scans(p: MapParams, k: int, offset: int, jobs: int, chunk_size: int):
    spans = _chunks(offset, 1 << k, chunk_size)
    tasks = [(p.m, k, start, stop) for start, stop in spans]
    if jobs == 1 or len(tasks) == 1:
        return [_scan_chunk(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_scan_chunk, tasks))


def count_window(p: MapParams, k: int, offset: int = 1, *, jobs: int = 1,
                 chunk_size: int = _DEFAULT_CHUNK) -> OracleReport:
    """Tally one window of 2**k starts and pull the table total for k.

    The window is [offset, offset + 2**k); any offset gives the same
    counts because a window of width 2**k meets every residue class
    mod 2**k exactly once.
    """
    _validate(k, offset, jobs, chunk_size)
    results = _run_scans(p, k, offset, jobs, chunk_size)
    gt = sum(r[0] for r in results)
    ge = sum(r[1] for r in results)
    agt = sum(r[2] for r in results)
    table_n = density_series(p, k, k).points[-1].N
    return OracleReport(m=p.m, k=k, offset=offset, table_N=table_n,
                        count_coefficient_gt=gt, count_coefficient_ge=ge,
                        count_actual_gt=agt)


def discrepancy_scan(p: MapParams, k: int, offset: int = 1, *, jobs: int = 1,
                     chunk_size: int = _DEFAULT_CHUNK) -> list[int]:
    """Every n in the window where the two survival notions disagree,
    i.e. (actual drop within k) differs from (coefficient drop within k),
    in increasing order.  A coefficient drop is necessary for an actual
    drop, so each listed n survives k steps in value while its slope
    has already dipped below 1."""
    _validate(k, offset, jobs, chunk_size)
    results = _run_scans(p, k, offset, jobs, chunk_size)
    out: list[int] = []
    for r in results:
        out.extend(r[3])
    return out
