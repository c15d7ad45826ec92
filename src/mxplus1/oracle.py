"""Brute-force verification of the table by direct iteration.

The table's totals claim that any window of 2**k consecutive starts
contains exactly N survivors of the slope criterion.  This module checks
that claim the hard way: decide every start of a window, track the
first coefficient drop (m**k2 < 2**j) and the first actual value drop
(T^(j)(n) < n), and tally.

It decides them class by class.  The first j parity bits of n, and so
2**j*T^(j)(n) = m**k2*n + c, depend only on n mod 2**j (Terras 1976),
and a window of 2**k starts meets every class mod 2**k once.  So the
scan walks the tree of classes: a class r mod 2**j with no coefficient
drop yet and value v = T^(j)(r) has the children r, with value v, and
r + 2**j, with value v + m**k2, each stepped once.  A child that drops
is pruned, and the leaves at level k are the survivors.  Brute force
for k <= MAX_ORACLE_K thus means exhaustive over the classes mod 2**k:
the walk steps the map on integers, and shares with the recursion of
density only bigmath's table of power thresholds.  Of a class that
drops, every start but its least, r, drops in value at the same step;
the few r that do not are stepped one by one.

Values are wrapping uint64, whose low 64 - j bits are exact after j
steps: only parities are read, and a class that drops never wraps (see
_descend).  It goes in chunks, halved as they grow, that are summed: the
result is bit-identical for any cut or worker count (see _scan_window).

The periodicity check steps each start on its own, on wrapping uint32:
parity vectors of length k repeat with period 2**k, and the 2**k vectors
of one window are all distinct (Terras 1976).  This is the fact the walk
rests on, checked on the integers themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bigmath import _coefficient_limits
from .density import _usable_cores, density_series
from .trajectory import MapParams, _first_drops, _parity_code

MAX_ORACLE_K = 26
MAX_PERIODICITY_K = 20
# periodicity_window's chunk width.  Chunks of 2**12 .. 2**16 starts: for
# m=3, verify-periodicity peaked at 29 620, 29 688, 29 732, 30 148 and
# 30 548 KB RSS in 7.4, 6.3, 6.0, 6.0 and 6.5 ms at k=16, and at 30 480,
# 30 484, 30 744, 31 116 and 31 768 KB in 95, 72, 58, 52 and 55 ms at
# k=20 (fresh runs, median of 15, 2-core Xeon VM).
_CHUNK = 1 << 14
_WIDTH = 1 << 13  # the most classes a level of the oracle's walk holds
# Bound on the class steps each worker must get (the walk takes 0.57-0.96
# of it): a pool of two starts in 10-13 ms and a class step takes 20 ns
# (m=3 and 5 at k=26, 2-core Xeon VM), so two pay past 1.3 M steps in all.
POOL_MIN_STEPS = 1 << 21


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


def _parity_codes(m: int, k: int, start: int, size: int) -> np.ndarray:
    """trajectory._parity_code of start, start+1, ..., start+size-1 as
    a uint32 array: bit j is the parity of the j-th value.

    Each step is v + odd*((m-1)*v + 1), an even sum, then a one-bit
    shift, on wrapping uint32: the sum is exact in the bits v is, and
    the shift loses the top one, so after j steps the low 32 - j bits of
    v are exact.  A code of length k reads bit 0 after at most k - 1
    steps, so for k <= MAX_PERIODICITY_K (at most 32) every parity read
    is the integer's own, for any odd m and any start.
    """
    v = np.arange(size, dtype=np.uint32)
    v += start % (1 << 32)
    code = np.zeros(size, dtype=np.uint32)
    odd, term = np.empty_like(v), np.empty_like(v)
    for j in range(k):
        np.bitwise_and(v, 1, out=odd)
        if j + 1 < k:
            np.multiply(v, (m - 1) % (1 << 32), out=term)
            term += 1
            term *= odd
            v += term
            v >>= 1
        odd <<= j
        code |= odd
    return code


def periodicity_window(p: MapParams, k: int, start: int) -> tuple[int, bool]:
    """Check Terras's periodicity on the window [start, start + 2**k).

    Returns how many distinct parity vectors of length k the window's
    starts have (the theorem says all 2**k), and whether every start's
    vector equals that of the start 2**k above it.  The window is
    stepped in chunks; one table of 2**k flags collects the codes, and
    each chunk's ends are checked against the map stepped on Python ints.
    """
    if not 1 <= k <= MAX_PERIODICITY_K:
        raise ValueError(f"k must be in 1..{MAX_PERIODICITY_K}")
    if start < 0:
        raise ValueError("start must be non-negative")
    width = 1 << k
    seen = np.zeros(width, dtype=bool)
    repeats_ok = True
    end = start + width
    for lo in range(start, end, _CHUNK):
        size = min(lo + _CHUNK, end) - lo
        codes = _parity_codes(p.m, k, lo, size)
        ends = _parity_code(p.m, lo, k), _parity_code(p.m, lo + size - 1, k)
        if (codes[0], codes[-1]) != ends:
            raise RuntimeError(f"the parity codes of {lo}..{lo + size - 1} are not the map's")
        seen[codes] = True
        repeats_ok = repeats_ok and np.array_equal(
            codes, _parity_codes(p.m, k, lo + width, size))
    return int(np.count_nonzero(seen)), repeats_ok


def _children(j: int, r: np.ndarray, v: np.ndarray, k2: np.ndarray,
              pow_m: np.ndarray):
    """The classes mod 2**(j+1) under (r, v, k2) mod 2**j, stepped once:
    r keeps its value v, r + 2**j takes v + m**k2 (pow_m[i] = m**i)."""
    r = np.concatenate((r, r + (1 << j)))
    v = np.concatenate((v, v + pow_m.take(k2)))
    k2 = np.concatenate((k2, k2))
    odd = v & 1
    v = np.where(odd, v * pow_m[1] + 1, v) >> 1
    k2 += odd.astype(np.int8)
    return r, v, k2


def _descend(k: int, offset: int, lim: list[int], pow_m: np.ndarray, alive: np.ndarray,
             j: int, r: np.ndarray, v: np.ndarray, k2: np.ndarray):
    """Walk the classes (r, v, k2) mod 2**j breadth first to level k at
    most, while the children of a level fit in _WIDTH (one class always
    steps), and add the classes left at each level to alive[level].
    Returns the last level's (j, r, v, k2) and the starts of
    [offset, offset + 2**k) that keep their value at their class's drop.

    A child drops at step j when k2 < lim[j].  Then k2 = lim[j] - 1 (it
    was lim[j-1] or more a step before, and lim[j] <= lim[j-1] + 1), so
    a = m**k2 < 2**j.  A start n = r + u*2**j has T^(j)(n) = T^(j)(r) +
    u*a, so it drops in value at step j iff u*(2**j - a) > T^(j)(r) - r.
    After i steps, T^(i)(r) = (a*r + c) / 2**i with c/2**i = a/(m*2**i)
    times the sum, over odd steps t, of 2**t / m**(odd steps before t),
    and each term is at most 1 before the drop.  So T^(j)(r) - r < j/m,
    which is at most 2**j - a for j <= 26 (for m < 27 by the tests, and
    j/m < 1 past it): every start but r drops in value at step j, and r
    does iff T^(j)(r) < r.

    No value on the way to a drop wraps: a class r < 2**(i+1) has
    T^(i)(r) < a*(2 + i/m), and up to a drop at step j <= 26, k2 never
    falls, so every a, and m*a at an odd step, is below 2**j, and every
    value below 2**31.
    """
    low = []
    while j < k and (2 * r.size <= _WIDTH or r.size == 1):
        r, v, k2 = _children(j, r, v, k2, pow_m)
        j += 1
        drop = k2 < lim[j]
        # r < 2**k: in the window iff r >= offset
        low += [n for n in r[drop & (v >= r)].tolist() if n >= offset]
        keep = np.flatnonzero(~drop)
        alive[j] += keep.size
        r, v, k2 = r.take(keep), v.take(keep), k2.take(keep)
    return j, r, v, k2, low


def _walk(task: tuple) -> tuple[np.ndarray, list[int]]:
    """(classes left at each level, low starts) of the classes (r, v, k2)
    mod 2**j walked to level k in chunks that descend and are cut in
    two, the second half copied so that its source can go."""
    k, offset, lim, pow_m, *chunk = task
    alive, low, chunks = np.zeros(k + 1, np.int64), [], [chunk]
    while chunks:
        j, r, v, k2, c_low = _descend(k, offset, lim, pow_m, alive, *chunks.pop())
        low += c_low
        if j < k:
            half = r.size // 2
            chunks += [(j, r[half:].copy(), v[half:].copy(), k2[half:].copy()),
                       (j, r[:half], v[:half], k2[:half])]
    return alive, low


def _scan_window(p: MapParams, k: int, offset: int,
                 jobs: int) -> tuple[int, int, int, list[int]]:
    """Validate and walk [offset, offset + 2**k): (gt, ge, agt,
    mismatches), the mismatches in increasing order.

    The walk goes breadth first while a level fits _WIDTH, to level j,
    then in chunks.  Workers start only if r.size*(2**(k-j+1) - 2), the
    most class steps left, gives each POOL_MIN_STEPS.  A low start is a
    mismatch iff it never drops.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > MAX_ORACLE_K:
        raise ValueError(f"k={k} exceeds the brute-force budget ({MAX_ORACLE_K})")
    if offset < 1:
        raise ValueError("offset must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    lim = _coefficient_limits(p.m, k)
    pow_m = np.array([pow(p.m, i, 1 << 64) for i in range(k + 1)], dtype=np.uint64)
    root = np.zeros(1, np.uint32), np.zeros(1, np.uint64), np.zeros(1, np.int8)
    alive = np.array([1] + [0] * k)  # the root, the one class mod 2**0
    j, r, v, k2, low = _descend(k, offset, lim, pow_m, alive, 0, *root)
    bound = r.size * ((2 << (k - j)) - 2)
    workers = max(1, min(jobs, _usable_cores() or 1, bound // POOL_MIN_STEPS))
    parts = zip(*(np.array_split(a, 4 * workers) for a in (r, v, k2)))
    tasks = [(k, offset, lim, pow_m, j, *part) for part in parts]
    if workers == 1:
        results = map(_walk, tasks)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only here: it imports multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_walk, tasks))
    alives, lows = zip((alive, low), *results)
    alive, low = sum(alives).tolist(), sorted(n for part in lows for n in part)
    mismatches = [n for n in low if not _first_drops(p.m, n, k)[1]]
    # the window holds each class mod 2**k once, and each mod 2**(k-1) twice
    return alive[k], 2 * alive[k - 1], alive[k] + len(mismatches), mismatches


def count_window(p: MapParams, k: int, offset: int = 1, *,
                 jobs: int = 1) -> OracleReport:
    """Tally one window of 2**k starts and pull the table total for k.

    The window is [offset, offset + 2**k); any offset gives the same
    counts because a window of width 2**k meets every residue class
    mod 2**k exactly once.
    """
    gt, ge, agt, _ = _scan_window(p, k, offset, jobs)
    table_n = density_series(p, k, k).points[-1].N
    return OracleReport(m=p.m, k=k, offset=offset, table_N=table_n,
                        count_coefficient_gt=gt, count_coefficient_ge=ge,
                        count_actual_gt=agt)


def discrepancy_scan(p: MapParams, k: int, offset: int = 1, *,
                     jobs: int = 1) -> list[int]:
    """Every n in the window where the two survival notions disagree,
    i.e. (actual drop within k) differs from (coefficient drop within k),
    in increasing order.  A coefficient drop is necessary for an actual
    drop, so each listed n survives k steps in value while its slope
    has already dipped below 1."""
    return _scan_window(p, k, offset, jobs)[3]
