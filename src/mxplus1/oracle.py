"""Brute-force verification of the table by direct iteration.

The table's totals claim that any window of 2**k consecutive starts
contains exactly N survivors of the slope criterion.  This module checks
that claim the hard way: iterate every start in a window, track the
first coefficient drop (m**k2 < 2**j) and the first actual value drop
(T^(j)(n) < n), and tally.  Counting is chunked; chunks are summed, so
the result is bit-identical for any chunking or worker count.

Every chunk runs one vectorized scan that holds each value in int64
limbs: one limb while a conservative bound keeps every intermediate
value below 2**62, more past it.  A pure big-integer scan stays as the
reference the tests compare it against; both give identical tallies.

The same limb stepper computes packed parity codes for the periodicity
check: parity vectors of length k repeat with period 2**k, and the
2**k vectors of one window are all distinct (Terras 1976).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bigmath import _coefficient_limits
from .density import density_series
from .trajectory import MapParams, _first_drops

MAX_ORACLE_K = 26
MAX_PERIODICITY_K = 20
_DEFAULT_CHUNK = 1 << 16


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


def _step_bound(m: int, k: int, stop: int) -> int:
    """Bound above every m*v + 1 computed within k steps of a start
    below stop."""
    # Largest intermediate from a start below `stop` is under
    # (stop+1) * (m/2)**k; the step computes m*v + 1 before halving.
    bound = ((stop + 1) * m**k >> k) + 1
    return m * bound + 1


def _limb_width(m: int) -> int:
    # A limb of 62 - bits(m) bits keeps m*limb + carry below 2**63.  Past
    # 31-bit multipliers, m is itself split into 31-bit limbs.
    return 62 - min(m.bit_length(), 31)


def _limb_count(m: int, k: int, stop: int, width: int) -> int:
    """Limbs enough for every m*v + 1 within k steps of a start below
    stop: one (the top limb is never masked) while they stay below
    2**62, otherwise width-bit limbs.  A multiplier of more than 31 bits
    never gets one limb, since the bound exceeds m**2."""
    bound = _step_bound(m, k, stop)
    if bound < 1 << 62:
        return 1
    return -(-(bound - 1).bit_length() // width)


def _int_limbs(n: int, width: int) -> list[int]:
    mask = (1 << width) - 1
    return [(n >> i) & mask for i in range(0, n.bit_length(), width)]


def _range_limbs(start: int, size: int, count: int, width: int) -> list[np.ndarray]:
    """start, start+1, ..., start+size-1 as `count` int64 limbs of
    `width` bits each, least significant first; the top limb holds all
    the remaining high bits."""
    mask = (1 << width) - 1
    limbs = []
    carry = np.arange(size, dtype=np.int64)
    for i in range(count - 1):
        limb = carry + ((start >> (width * i)) & mask)
        carry = limb >> width
        limbs.append(limb & mask)
    limbs.append(carry + (start >> (width * (count - 1))))
    return limbs


def _limbs_to_ints(limbs: list[np.ndarray], width: int) -> list[int]:
    return [sum(x << (width * i) for i, x in enumerate(col))
            for col in zip(*(limb.tolist() for limb in limbs))]


def _step_limbs(v: list[np.ndarray], odd: np.ndarray, m_limbs: list[int],
                width: int) -> None:
    """One step of the map on limbs, in place: (m*v + 1) >> 1 where odd
    is 1 and v >> 1 where it is 0.

    Both cases are v + odd*((m-1)*v + 1): one multiply-add with carry
    from the lowest limb up, then a one-bit shift across the limbs.  The
    caller's limb count keeps m*v + 1 inside the limbs, so the top limb
    never carries out and is never masked.
    """
    mask = (1 << width) - 1
    top = len(v) - 1
    # with m in one limb, limb s of the product reads only limb s of v
    src = v if len(m_limbs) == 1 else [limb.copy() for limb in v]
    term = np.empty_like(odd)
    carry = odd
    for s in range(top + 1):
        for j, mu in enumerate(m_limbs[:s + 1]):
            np.multiply(src[s - j], mu - 1 if j == 0 else mu, out=term)
            term *= odd
            if j == 0:
                term += carry
            v[s] += term
            if s < top:
                high = v[s] >> width
                v[s] &= mask
                carry = high if j == 0 else carry + high
    for s in range(top):
        np.bitwise_and(v[s + 1], 1, out=term)
        term <<= width - 1
        v[s] >>= 1
        v[s] |= term
    v[top] >>= 1


def _limbs_less(a: list[np.ndarray], b: list[np.ndarray]) -> np.ndarray:
    """a < b, comparing limbs from the top one down."""
    less = a[-1] < b[-1]
    equal = a[-1] == b[-1]
    for x, y in zip(a[-2::-1], b[-2::-1]):
        less |= equal & (x < y)
        equal &= x == y
    return less


def _scan_limbs(m: int, k: int, start: int, stop: int):
    """Vectorized scan of one chunk, with the same tallies as _scan_exact.

    Every value is a list of int64 limbs, least significant first: one
    limb while _limb_count's bound stays below 2**62, otherwise limbs
    of _limb_width(m) bits, so m*v + 1 always fits.  The coefficient
    drop is the test k2 < lim[j].

    Only unsettled starts are stepped: a start is settled once both its
    coefficient drop and its actual drop are found, and from then on it
    adds to no tally (a coefficient drop before step k counts toward
    neither gt nor ge).  The live arrays are compacted whenever they
    have halved, but not after the last step, where a coefficient drop
    at step k still counts toward ge.  Boolean compaction keeps order,
    so the mismatches stay increasing.
    """
    lim = _coefficient_limits(m, k)
    width = _limb_width(m)
    m_limbs = _int_limbs(m, width)
    n0 = _range_limbs(start, stop - start, _limb_count(m, k, stop, width), width)
    v = [limb.copy() for limb in n0]
    # odd-step counts and first-drop steps (0 = none yet); k <= 26 fits int8
    k2 = np.zeros(stop - start, dtype=np.int8)
    fc = np.zeros_like(k2)
    fa = np.zeros_like(k2)
    for j in range(1, k + 1):
        odd = v[0] & 1
        k2 += odd.astype(np.int8)
        _step_limbs(v, odd, m_limbs, width)
        np.putmask(fc, (fc == 0) & (k2 < lim[j]), j)
        np.putmask(fa, (fa == 0) & _limbs_less(v, n0), j)
        if j < k:
            live = (fc == 0) | (fa == 0)
            if 2 * np.count_nonzero(live) <= k2.size:
                n0 = [limb[live] for limb in n0]
                v = [limb[live] for limb in v]
                k2, fc, fa = k2[live], fc[live], fa[live]
    gt = int(np.count_nonzero(fc == 0))
    ge = gt + int(np.count_nonzero(fc == k))
    agt = int(np.count_nonzero(fa == 0))
    differ = (fc == 0) != (fa == 0)
    return gt, ge, agt, _limbs_to_ints([limb[differ] for limb in n0], width)


def _scan_exact(m: int, k: int, start: int, stop: int):
    """Pure-integer reference scan; exact for any m, k and start >= 1.

    Each start's first drops come from the scalar walk behind the public
    stopping times.  Production never calls it: _scan_chunk runs
    _scan_limbs.  The tests compare the two.
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


def _parity_codes(m: int, k: int, start: int, size: int) -> np.ndarray:
    """trajectory._parity_code of start, start+1, ..., start+size-1 as
    an int64 array: bit j is the parity of the j-th value."""
    width = _limb_width(m)
    m_limbs = _int_limbs(m, width)
    v = _range_limbs(start, size, _limb_count(m, k, start + size, width), width)
    code = np.zeros(size, dtype=np.int64)
    for j in range(k):
        odd = v[0] & 1
        code |= odd << j
        if j + 1 < k:
            _step_limbs(v, odd, m_limbs, width)
    return code


def periodicity_window(p: MapParams, k: int, start: int) -> tuple[int, bool]:
    """Check Terras's periodicity on the window [start, start + 2**k).

    Returns how many distinct parity vectors of length k the window's
    starts have (the theorem says all 2**k), and whether every start's
    vector equals that of the start 2**k above it.  The window is
    stepped in chunks; one table of 2**k flags collects the codes.
    """
    if not 1 <= k <= MAX_PERIODICITY_K:
        raise ValueError(f"k must be in 1..{MAX_PERIODICITY_K}")
    if start < 0:
        raise ValueError("start must be non-negative")
    width = 1 << k
    seen = np.zeros(width, dtype=bool)
    repeats_ok = True
    end = start + width
    for lo in range(start, end, _DEFAULT_CHUNK):
        size = min(lo + _DEFAULT_CHUNK, end) - lo
        codes = _parity_codes(p.m, k, lo, size)
        seen[codes] = True
        repeats_ok = repeats_ok and np.array_equal(
            codes, _parity_codes(p.m, k, lo + width, size))
    return int(np.count_nonzero(seen)), repeats_ok


def _scan_chunk(args: tuple[int, int, int, int]):
    return _scan_limbs(*args)


def _scan_window(p: MapParams, k: int, offset: int, jobs: int,
                 chunk_size: int) -> tuple[int, int, int, list[int]]:
    """Validate, scan [offset, offset + 2**k) chunk by chunk and sum the
    chunks' (gt, ge, agt, mismatches); chunks come back in order, so
    the mismatches stay increasing."""
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
    end = offset + (1 << k)
    tasks = [(p.m, k, start, min(start + chunk_size, end))
             for start in range(offset, end, chunk_size)]
    # no more workers than chunks or cores: a pool starts all of them
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        results = map(_scan_chunk, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_chunk, tasks))
    gt = ge = agt = 0
    mismatches: list[int] = []
    for c_gt, c_ge, c_agt, c_mismatches in results:
        gt += c_gt
        ge += c_ge
        agt += c_agt
        mismatches += c_mismatches
    return gt, ge, agt, mismatches


def count_window(p: MapParams, k: int, offset: int = 1, *, jobs: int = 1,
                 chunk_size: int = _DEFAULT_CHUNK) -> OracleReport:
    """Tally one window of 2**k starts and pull the table total for k.

    The window is [offset, offset + 2**k); any offset gives the same
    counts because a window of width 2**k meets every residue class
    mod 2**k exactly once.
    """
    gt, ge, agt, _ = _scan_window(p, k, offset, jobs, chunk_size)
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
    return _scan_window(p, k, offset, jobs, chunk_size)[3]
