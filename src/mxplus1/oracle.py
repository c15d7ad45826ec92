"""Brute-force verification of the table by direct iteration.

The table's totals claim that any window of 2**k consecutive starts
contains exactly N survivors of the slope criterion.  This module checks
that claim the hard way: decide every start of a window, track the
first coefficient drop (m**k2 < 2**j) and the first actual value drop
(T^(j)(n) < n), and tally.  A residue sieve goes first, once per
window: the first j parity bits of n, and so 2**j*T^(j)(n) = m**k2*n +
c, depend only on n mod 2**j (Terras 1976).  The residues mod 2**s,
stepped once, show the starts that drop in coefficient and in value at
one step j <= s < k; only the others are stepped, in chunks of
_STEPPED of them.  Chunks are summed, so the result is
bit-identical for any chunking or worker count.  Each runs one
vectorized scan that holds each value in int64 limbs: one limb while a
conservative bound keeps every value below 2**62, more past it.

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
from .trajectory import MapParams

MAX_ORACLE_K = 26
MAX_PERIODICITY_K = 20
_CHUNK = 1 << 16  # periodicity_window's chunk width
_STEPPED = 1 << 13  # hard starts an oracle chunk steps (the last fewer)
_SIEVE_BITS = 14


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


def _range_limbs(start: int, offsets: np.ndarray, count: int,
                 width: int) -> list[np.ndarray]:
    """start + offsets (an int64 array) as `count` int64 limbs of
    `width` bits each, least significant first; the top limb holds all
    the remaining high bits."""
    mask = (1 << width) - 1
    limbs = []
    carry = offsets
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


def _sieve(m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """First drops of the residues r = 0 .. 2**s - 1, as (fc, top).

    Every n = r + u*2**s has r's first s parity bits.  fc[r] is their
    first step j <= s with m**k2 < 2**j (0 = none).  With a = m**k2,
    T^(j)(n) = T^(j)(r) + u*a*2**(s-j), so n drops below itself at step
    j iff u*2**(s-j)*(2**j - a) > T^(j)(r) - r; top[r] is the largest n
    that does not (-1 where fc[r] = 0).  A chunk steps the starts with
    fc = 0 or at or below their top: a top too large only steps more
    starts, one too small would skip starts that add to a tally.

    At a first drop k2 = lim[j] - 1 (it was lim[j-1] or more a step
    before, and lim[j] <= lim[j-1] + 1), so a < 2**j <= 2**s.  And
    T^(j)(r) = (a*r + c) / 2**j < r + j/m < 2**(s+1): c/2**j is
    a/(m*2**j) times the sum, over odd steps i, of 2**i / m**(odd steps
    before i), each term at most 1 before the drop.  So the low limb
    holds T^(j)(r) and top fits int64.
    """
    lim = _coefficient_limits(m, s)
    width = _limb_width(m)
    m_limbs = _int_limbs(m, width)
    v = _range_limbs(0, np.arange(1 << s, dtype=np.int64),
                     _limb_count(m, s, 1 << s, width), width)
    k2 = np.zeros(1 << s, dtype=np.int8)
    fc = np.zeros_like(k2)
    top = np.full(1 << s, -1, dtype=np.int64)
    for j in range(1, s + 1):
        odd = v[0] & 1
        k2 += odd.astype(np.int8)
        _step_limbs(v, odd, m_limbs, width)
        new = np.flatnonzero((fc == 0) & (k2 < lim[j]))
        if new.size:
            fc[new] = j
            den = (1 << s) - (m ** (lim[j] - 1) << (s - j))
            top[new] = new + (v[0][new] - new) // den * (1 << s)
    return fc, top


def _window_sieve(m: int, k: int) -> tuple[int, np.ndarray, list[int]]:
    """(s, hard, low) for every chunk of a window of 2**k: s =
    min(_SIEVE_BITS, k - 1), the residues r mod 2**s with fc[r] = 0 and
    the starts n <= top[n mod 2**s] of the others (n <= 17 for m <= 11)."""
    s = min(_SIEVE_BITS, k - 1)
    fc, top = _sieve(m, s)
    tops = np.flatnonzero(top >= np.arange(1 << s)).tolist()
    low = [n for r in tops for n in range(r, int(top[r]) + 1, 1 << s)]
    return s, np.flatnonzero(fc == 0), low


def _scan_limbs(m: int, k: int, start: int, stop: int,
                sieve: tuple[int, np.ndarray, list[int]]):
    """Vectorized scan of one chunk: the tallies of _first_drops on
    each start.  It steps only the starts r + u*2**s of the hard
    residues r, listed block by block in increasing order, and those in
    low: every other start drops in coefficient and in value at one step
    j <= s < k, has fc = fa = j < k and adds to no tally.

    Every value is a list of int64 limbs, least significant first: one
    limb while _limb_count's bound stays below 2**62, otherwise limbs
    of _limb_width(m) bits, so m*v + 1 always fits.  The coefficient
    drop is the test k2 < lim[j].

    A start is settled once both its drops are found, and from then on
    adds to no tally (a coefficient drop before step k counts toward
    neither gt nor ge).  The live arrays are compacted whenever they
    have halved, but not after the last step, where a coefficient drop
    at step k still counts toward ge.  Compaction keeps order.
    """
    s, hard, low = sieve
    offsets = np.add.outer(np.arange(-(start % (1 << s)), stop - start,
                                     1 << s), hard).ravel()
    lo, hi = np.searchsorted(offsets, (0, stop - start))
    offsets = offsets[lo:hi]
    extra = [n - start for n in low if start <= n < stop]
    if extra:
        offsets = np.union1d(offsets, extra)
    lim = _coefficient_limits(m, k)
    width = _limb_width(m)
    m_limbs = _int_limbs(m, width)
    n0 = _range_limbs(start, offsets, _limb_count(m, k, stop, width), width)
    v = [limb.copy() for limb in n0]
    # odd-step counts and first-drop steps (0 = none yet); k <= 26 fits int8
    k2 = np.zeros(offsets.size, dtype=np.int8)
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


def _parity_codes(m: int, k: int, start: int, size: int) -> np.ndarray:
    """trajectory._parity_code of start, start+1, ..., start+size-1 as
    an int64 array: bit j is the parity of the j-th value."""
    width = _limb_width(m)
    m_limbs = _int_limbs(m, width)
    v = _range_limbs(start, np.arange(size, dtype=np.int64),
                     _limb_count(m, k, start + size, width), width)
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
    for lo in range(start, end, _CHUNK):
        size = min(lo + _CHUNK, end) - lo
        codes = _parity_codes(p.m, k, lo, size)
        seen[codes] = True
        repeats_ok = repeats_ok and np.array_equal(
            codes, _parity_codes(p.m, k, lo + width, size))
    return int(np.count_nonzero(seen)), repeats_ok


def _scan_chunk(args: tuple):
    return _scan_limbs(*args)


def _scan_window(p: MapParams, k: int, offset: int,
                 jobs: int) -> tuple[int, int, int, list[int]]:
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
    s, hard, _ = sieve = _window_sieve(p.m, k)
    end = offset + (1 << k)
    # chunks start at offset and at every _STEPPED-th hard start after it:
    # the j-th from block u = offset >> s on is (u + j//h)*2**s + hard[j % h]
    u, h = offset >> s, hard.size
    first = int(np.searchsorted(hard, offset - (u << s)))
    cuts = [(u + j // h << s) + int(hard[j % h])
            for j in range(first + _STEPPED, h << (k - s + 1), _STEPPED)]
    bounds = [offset, *(n for n in cuts if n < end), end]
    tasks = [(p.m, k, a, b, sieve) for a, b in zip(bounds, bounds[1:])]
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
