import random
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxplus1 import (T3, T5, MapParams, count_window, discrepancy_scan,
                     periodicity_window)
from mxplus1 import oracle
from mxplus1.oracle import (_coefficient_limits, _limb_count, _limb_width,
                            _parity_codes, _scan_chunk, _sieve, _step_bound,
                            _window_sieve)
from mxplus1.trajectory import _first_drops, _parity_code
from reference import LESS, cmp_pow, scan_exact


def test_count_window_examples():
    rep = count_window(T3, 5)
    assert rep.count_coefficient_gt == 4
    assert rep.table_N == 4
    assert rep.matches_table
    rep = count_window(T3, 1)
    assert rep.count_coefficient_gt == 1  # only the odd residue survives
    assert rep.table_N == 1


def test_count_window_k10_both_offsets():
    for offset in (1, 12345):
        rep = count_window(T3, 10, offset)
        assert rep.count_coefficient_gt == 64
        assert rep.matches_table


def test_count_window_k10_full_tallies():
    rep = count_window(T3, 10)
    assert (rep.count_coefficient_gt, rep.count_coefficient_ge,
            rep.count_actual_gt) == (64, 76, 65)
    assert rep.discrepancy == 1


@pytest.mark.parametrize("p", [T3, T5], ids=["m3", "m5"])
def test_shaded_equivalence(p):
    # chi = k happens for exactly the shaded count of column k
    from mxplus1 import density_series
    series = density_series(p, 12, 1)
    for k in range(1, 13):
        rep = count_window(p, k)
        assert rep.count_coefficient_ge - rep.count_coefficient_gt == \
            series.points[k].shaded_count


def _chunk(m: int, k: int, start: int, stop: int):
    """One chunk scanned as a window of 2**k scans it, with its sieve."""
    return _scan_chunk((m, k, start, stop, _window_sieve(m, k)))


@contextmanager
def _spy_chunks():
    """(start, stop) of every chunk an in-process scan runs, in order."""
    chunks, scan = [], oracle._scan_chunk

    def spy(args):
        chunks.append(args[2:4])
        return scan(args)

    with mock.patch.object(oracle, "_scan_chunk", spy):
        yield chunks


def test_window_invariance_three_offsets():
    reports = [count_window(T3, 8, off) for off in (1, 977, 31415)]
    base = reports[0]
    for rep in reports[1:]:
        assert rep.count_coefficient_gt == base.count_coefficient_gt
        assert rep.count_coefficient_ge == base.count_coefficient_ge
    # actual-drop counts also window-invariant? they are not in general
    # guaranteed by periodicity (value comparisons depend on n itself),
    # so only the vector-determined tallies are asserted here.


def test_partition_determinism(monkeypatch):
    # A sieve of 7 bits has 13 hard residues for m=3, so the window of
    # 2**10 holds 104 hard starts: 104, 6, 4, 2 and 1 chunks.
    monkeypatch.setattr(oracle, "_SIEVE_BITS", 7)
    monkeypatch.setattr(oracle, "_STEPPED", 1 << 18)
    base = count_window(T3, 10)
    for stepped, chunks in ((1, 104), (20, 6), (26, 4), (60, 2), (104, 1)):
        monkeypatch.setattr(oracle, "_STEPPED", stepped)
        with _spy_chunks() as spans:
            rep = count_window(T3, 10)
        assert len(spans) == chunks
        assert (rep.count_coefficient_gt, rep.count_coefficient_ge,
                rep.count_actual_gt) == (base.count_coefficient_gt,
                                         base.count_coefficient_ge,
                                         base.count_actual_gt)


def test_jobs_bit_identical(monkeypatch):
    # 38 hard residues mod 2**9 for m=3: 8 chunks of 38 hard starts
    monkeypatch.setattr(oracle, "_SIEVE_BITS", 9)
    monkeypatch.setattr(oracle, "_STEPPED", 38)
    with _spy_chunks() as spans:
        seq = count_window(T3, 12, jobs=1)
    assert len(spans) == 8
    par = count_window(T3, 12, jobs=4)
    assert seq == par
    assert discrepancy_scan(T3, 12, jobs=4) == discrepancy_scan(T3, 12, jobs=1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the
    number of tasks, and maps in-process, so no worker is ever started."""

    sizes: list[int] = []
    tasks: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.tasks.append(len(tasks))
        return map(fn, tasks)


@pytest.mark.parametrize("cpus", [1, 2, 64, None])
def test_worker_count_capped(monkeypatch, cpus):
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "tasks", [])
    # 38 hard residues mod 2**9 for m=3: the window holds 8*38 hard
    # starts, so 38 stepped starts make 8 chunks and 8*38 one
    monkeypatch.setattr(oracle, "_SIEVE_BITS", 9)
    monkeypatch.setattr(oracle, "_STEPPED", 38)
    seq = count_window(T3, 12, jobs=1)
    # 8 chunks: the pool gets no more workers than chunks or cores
    assert count_window(T3, 12, jobs=5000) == seq
    assert discrepancy_scan(T3, 12, jobs=3) == discrepancy_scan(T3, 12, jobs=1)
    cores = cpus or 1
    expected = [n for n in (min(8, cores), min(3, cores)) if n > 1]
    assert _RecordingPool.sizes == expected
    assert _RecordingPool.tasks == [8] * len(expected)
    # a one-chunk window never starts a pool
    monkeypatch.setattr(oracle, "_STEPPED", 8 * 38)
    count_window(T3, 12, jobs=5000)
    assert _RecordingPool.sizes == expected


def _first_stop_on_limbs(m: int, k: int, count: int) -> int:
    """Least stop whose chunks run on at least `count` limbs."""
    width = _limb_width(m)
    lo, hi = 0, 1 << (width * count + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _limb_count(m, k, mid, width) >= count else (mid, hi)
    return hi


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("offset", [1, 7])
def test_fast_path_matches_exact_path(m, offset):
    # A window from the offset, and windows ending `offset` below and
    # above the one-limb/two-limb bound (the int64 bound).
    width = _limb_width(m)
    for k in range(1, 11):
        bound = _first_stop_on_limbs(m, k, 2)
        for stop, limbs in ((offset + (1 << k), 1), (bound - offset, 1),
                            (bound + offset, 2)):
            start = stop - (1 << k)
            assert _limb_count(m, k, stop, width) == limbs
            fast = _chunk(m, k, start, stop)
            exact = scan_exact(m, k, start, stop)
            assert fast[:3] == exact[:3]
            assert list(fast[3]) == list(exact[3])


@given(m=st.sampled_from([3, 5, 7, 9]),
       k=st.integers(min_value=1, max_value=14),
       start=st.integers(min_value=1, max_value=1 << 24),
       size=st.sampled_from([1, 7, 37]) | st.integers(min_value=1, max_value=1 << 14),
       near=st.booleans())
@settings(max_examples=300, deadline=None)
def test_fast_chunk_equals_exact_chunk(m, k, start, size, near):
    # Sizes 1, 7 and 37 leave the live arrays at odd lengths, so the
    # halving test fires at uneven points of the scan.  A near chunk
    # ends at most 4 below the one-limb bound, where values approach
    # 2**62 and a one-limb value is wider than _limb_width(m).
    if near:
        start = _first_stop_on_limbs(m, k, 2) - 1 - start % 4 - size
    stop = start + size
    assert _limb_count(m, k, stop, _limb_width(m)) == 1  # one int64 per value
    assert _chunk(m, k, start, stop) == scan_exact(m, k, start, stop)


@pytest.mark.parametrize("m", [3, 5, 7, 2**40 + 1])
def test_sieve_table_is_exact(m):
    # Every residue r mod 2**s against the scalar walk of n = r + u*2**s,
    # u from 0 to two past top[r]: fc[r] is each n's first coefficient
    # drop within s steps, and n drops in value at that step iff
    # n > top[r].  A top one class too high (rounding u up) fails here.
    for s in range(1, 11):
        fc, top = _sieve(m, s)
        for r in range(1 << s):
            assert (fc[r] == 0) == (top[r] == -1)
            for u in range(max(int(top[r]) - r, 0) // (1 << s) + 3):
                n = r + u * (1 << s)
                if n == 0:
                    continue
                n_fc, n_fa = _first_drops(m, n, s)
                assert n_fc == fc[r]
                if fc[r]:
                    assert (n_fa == fc[r]) == (n > top[r]), (s, r, n)


@given(m=st.sampled_from([3, 5, 7, 9, 2**40 + 1]),
       k=st.integers(min_value=2, max_value=14),
       start=st.integers(min_value=1, max_value=64)
       | st.integers(min_value=1, max_value=1 << 22),
       size=st.integers(min_value=2, max_value=(1 << 10) - 1)
       | st.integers(min_value=1, max_value=1 << 13).map(lambda x: x | 1))
@settings(max_examples=300, deadline=None)
def test_small_starts_below_the_sieve_tops(m, k, start, size):
    # Starts at or below a residue's top are stepped although their
    # residue drops; sizes off the powers of two cover the residues
    # unevenly.
    stop = start + size
    assert _chunk(m, k, start, stop) == scan_exact(m, k, start, stop)


@contextmanager
def _spy_stepped(record=lambda start, offsets: [start + int(x) for x in offsets]):
    """What `record` makes of the starts of every _range_limbs call, in
    order: one call per chunk, and one per sieve, from start 0."""
    calls, range_limbs = [], oracle._range_limbs

    def spy(start, offsets, count, width):
        calls.append(record(start, offsets))
        return range_limbs(start, offsets, count, width)

    with mock.patch.object(oracle, "_range_limbs", spy):
        yield calls


def test_sieve_bounds_the_stepped_starts():
    # With m=3 a residue mod 2**14 has no drop within 14 steps for 734
    # of the 16384 residues, so a chunk of 2**16 starts steps 2936 of
    # them; without the sieve it steps them all.
    sieve = _window_sieve(3, 22)
    start = 1 << 32
    with _spy_stepped() as calls:
        _scan_chunk((3, 22, start, start + (1 << 16), sieve))
    assert [len(c) for c in calls] == [4 * 734]


class _Stepped(Exception):
    pass


def _raise_stepped(start, offsets, count, width):
    raise _Stepped([start + int(x) for x in offsets])


@given(m=st.sampled_from([3, 5, 7, 9, 2**40 + 1]),
       k=st.integers(min_value=1, max_value=26),
       start=st.integers(min_value=1, max_value=40)
       | st.integers(min_value=1, max_value=1 << 70),
       size=st.integers(min_value=1, max_value=1 << 12)
       | st.integers(min_value=1, max_value=1 << 17),
       near=st.booleans())
@settings(max_examples=200, deadline=None)
def test_chunk_steps_the_sieved_starts(m, k, start, size, near):
    # A chunk steps exactly the starts n of a residue with no
    # coefficient drop within s steps, or at or below the residue's top,
    # in increasing order.  Starts from 1 reach the tops (up to 17 for
    # m=5); a near chunk crosses the one-limb bound.
    if near:
        start = max(1, _first_stop_on_limbs(m, k, 2) - start % size)
    s = min(oracle._SIEVE_BITS, k - 1)
    fc, top = _sieve(m, s)
    offsets = np.arange(size)
    res = (offsets + start % (1 << s)) % (1 << s)
    want = np.flatnonzero((fc[res] == 0) | (offsets <= top[res] - min(start, 1 << 40)))
    sieve = _window_sieve(m, k)
    with pytest.raises(_Stepped) as stepped:
        with mock.patch.object(oracle, "_range_limbs", _raise_stepped):
            _scan_chunk((m, k, start, start + size, sieve))
    assert stepped.value.args[0] == [start + int(x) for x in want]


@given(m=st.sampled_from([3, 5, 7, 9, 2**40 + 1]),
       k=st.integers(min_value=1, max_value=11),
       bits=st.integers(min_value=1, max_value=14),
       stepped=st.sampled_from([1, 50, 1 << 14]),
       where=st.sampled_from(["low", "far", "bound"]),
       shift=st.integers(min_value=0, max_value=1 << 70))
@settings(max_examples=150, deadline=None)
def test_window_sums_the_exact_scan(m, k, bits, stepped, where, shift):
    # Windows from the low starts (1 to 16, through the tops), anywhere,
    # and across the one-limb bound, split into chunks whose ends are
    # off the 2**s block grid; their four results are scan_exact's.
    if where == "low":
        offset = 1 + shift % 16
    elif where == "far":
        offset = 1 + shift
    else:
        offset = max(1, _first_stop_on_limbs(m, k, 2) - 1 - shift % (1 << k))
    with mock.patch.object(oracle, "_SIEVE_BITS", bits), \
            mock.patch.object(oracle, "_STEPPED", stepped):
        got = oracle._scan_window(MapParams(m), k, offset, 1)
    assert got == scan_exact(m, k, offset, offset + (1 << k))


def test_oracle_memory_is_bounded_by_the_stepped_starts():
    # Chunks of _STEPPED hard starts keep the numpy buffers small.  The
    # tracemalloc peaks before chunks were sized so (2**16 starts each,
    # the sieve rebuilt in each) were 1 760 360 and 2 239 704 bytes.
    # Every chunk but the last steps _STEPPED hard starts, the first one
    # also the start 1 at its residue's top for m=3.
    runs = ((lambda: count_window(T5, 18, 2**60 + 1), 1_760_360, 0),
            (lambda: discrepancy_scan(T3, 20), 2_239_704, 1))
    for run, bound, low in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        with _spy_stepped(lambda start, offsets: (start, len(offsets))) as calls:
            run()
        stepped = [size for start, size in calls if start]  # the sieve's is 0
        assert len(stepped) > 4
        assert stepped[0] == oracle._STEPPED + low
        assert set(stepped[1:-1]) == {oracle._STEPPED}
        assert 0 < stepped[-1] <= oracle._STEPPED


def test_one_limb_while_the_step_bound_fits():
    # 7**23 exceeds 2**62, but the values of starts up to 2**16 stay
    # below 2**61, so one limb holds them.
    assert _step_bound(7, 23, 2**16 + 1) < 2**61
    assert _limb_count(7, 23, 2**16 + 1, _limb_width(7)) == 1
    start = 2**16 - 255
    assert _chunk(7, 23, start, 2**16 + 1) == scan_exact(7, 23, start, 2**16 + 1)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_coefficient_limits_against_cmp_pow(m):
    lim = _coefficient_limits(m, 26)
    assert len(lim) == 27
    for j, i in enumerate(lim):
        assert cmp_pow(m, i, j) != LESS  # m**i >= 2**j ...
        assert i == 0 or cmp_pow(m, i - 1, j) == LESS  # ... and i is the least


@pytest.mark.parametrize("m,k", [(3, 10), (5, 10), (7, 8)])
def test_window_across_int64_bound(monkeypatch, m, k):
    # The first chunks of this window end below the int64 bound and run
    # on one limb per value, the later ones end above it and run on two;
    # the tallies must be the exact scan's and the near window's.  With
    # a sieve of k - 4 bits, each chunk steps the hard starts of about
    # two blocks: 2**(k-3) starts.
    offset = _first_stop_on_limbs(m, k, 2) - (1 << (k - 1))
    p = MapParams(m)
    near = count_window(p, k, 1)
    monkeypatch.setattr(oracle, "_SIEVE_BITS", k - 4)
    monkeypatch.setattr(oracle, "_STEPPED", 2 * _window_sieve(m, k)[1].size)
    with _spy_chunks() as spans:
        far = count_window(p, k, offset)
    limbs = [_limb_count(m, k, stop, _limb_width(m)) for _, stop in spans]
    assert len(spans) == 8
    assert limbs == sorted(limbs) and limbs[0] == 1 and limbs[-1] == 2
    gt, ge, agt, mism = scan_exact(m, k, offset, offset + (1 << k))
    assert (far.count_coefficient_gt, far.count_coefficient_ge,
            far.count_actual_gt) == (gt, ge, agt)
    assert discrepancy_scan(p, k, offset) == mism
    assert far.count_coefficient_gt == near.count_coefficient_gt == near.table_N
    assert far.count_coefficient_ge == near.count_coefficient_ge


@given(m=st.sampled_from([3, 5, 7, 9, 2**40 + 1, 2**70 + 1]),
       k=st.integers(min_value=1, max_value=14),
       shift=st.integers(min_value=0, max_value=1 << 100)
       | st.integers(min_value=1 << 99, max_value=1 << 100),
       size=st.sampled_from([1, 7, 37]) | st.integers(min_value=1, max_value=1 << 12))
@settings(max_examples=200, deadline=None)
def test_limb_chunk_equals_exact_chunk(m, k, shift, size):
    # Every chunk ends past the int64 bound (on two limbs or more), from
    # just past it to 2**100 beyond; 2**40+1 and 2**70+1 are split into
    # limbs themselves.
    start = max(1, _first_stop_on_limbs(m, k, 2) - size) + shift
    stop = start + size
    assert _limb_count(m, k, stop, _limb_width(m)) >= 2
    assert not hasattr(oracle, "_scan_exact")  # the reference lives in the tests
    assert _chunk(m, k, start, stop) == scan_exact(m, k, start, stop)


@pytest.mark.parametrize("m", [2**31 - 1, 2**40 + 1, 2**61 - 1, 3**40, 2**70 + 1])
def test_limb_chunk_wide_multipliers(m):
    # 3**40 and 2**61-1 fill their 31-bit limbs of m, so every product
    # term carries; random 100-bit starts fill every limb of v.
    rng = random.Random(m)
    for k in range(1, 13):
        start = rng.getrandbits(100)
        assert _chunk(m, k, start, start + 64) == scan_exact(m, k, start, start + 64)
        codes = _parity_codes(m, k, start, 64).tolist()
        assert codes == [_parity_code(m, n, k) for n in range(start, start + 64)]


def test_fallback_far_window_matches_near_window():
    # offsets far beyond the int64-safe bound force the multi-limb path;
    # window invariance must still hold
    far = 3 * 10**17 + 1
    for k in (4, 6):
        a = count_window(T5, k, 1)
        b = count_window(T5, k, far)
        assert a.count_coefficient_gt == b.count_coefficient_gt
        assert a.count_coefficient_ge == b.count_coefficient_ge


def test_discrepancy_examples():
    assert discrepancy_scan(T3, 2, 1) == [1]
    assert discrepancy_scan(T3, 2, 3) == []
    assert discrepancy_scan(T3, 1, 2) == []
    assert discrepancy_scan(T3, 10, 1) == [1]


def test_validation():
    with pytest.raises(ValueError):
        count_window(T3, 27)
    with pytest.raises(ValueError):
        count_window(T3, 0)
    with pytest.raises(ValueError):
        count_window(T3, 5, 0)
    with pytest.raises(ValueError):
        count_window(T3, 5, 1, jobs=0)
    with pytest.raises(ValueError):
        discrepancy_scan(T3, 27)


def test_generalizes_to_other_multipliers():
    rep = count_window(MapParams(7), 8)
    assert rep.matches_table


@given(m=st.sampled_from([3, 5, 7, 2**40 + 1]),
       k=st.integers(min_value=1, max_value=12),
       start=st.integers(min_value=0, max_value=1 << 100),
       near=st.sampled_from([None, 2, 3]),
       size=st.integers(min_value=1, max_value=1 << 10))
@settings(max_examples=200, deadline=None)
def test_parity_codes_equal_parity_code_loop(m, k, start, near, size):
    if near is not None:
        # the range ends just past the bound of near - 1 limbs
        start = max(0, _first_stop_on_limbs(m, k, near) - 1 - start % size)
    codes = _parity_codes(m, k, start, size)
    assert codes.tolist() == [_parity_code(m, n, k) for n in range(start, start + size)]


def _periodicity_by_loop(m: int, k: int, start: int) -> tuple[int, bool]:
    width = 1 << k
    codes = [_parity_code(m, n, k) for n in range(start, start + 2 * width)]
    return len(set(codes[:width])), codes[:width] == codes[width:]


@pytest.mark.parametrize("m,k,start", [
    (3, 1, 0), (3, 8, 1), (5, 12, 12345), (7, 9, 2**100 - 3), (2**40 + 1, 6, 2**80),
])
def test_periodicity_window_equals_parity_code_loop(m, k, start):
    want = _periodicity_by_loop(m, k, start)
    assert want == (1 << k, True)
    for chunk in (1 << 16, 7, (1 << k) // 2 + 1):
        with mock.patch.object(oracle, "_CHUNK", chunk):
            assert periodicity_window(MapParams(m), k, start) == want


@pytest.mark.parametrize("m,k", [(3, 10), (5, 11), (7, 8)])
def test_periodicity_window_across_int64_bound(m, k):
    # The window's first chunks run on one int64 limb, the later ones
    # (and the shifted window) on two.
    width = 1 << k
    start = _first_stop_on_limbs(m, k, 2) - width
    chunk = width // 8
    assert _limb_count(m, k, start + chunk, _limb_width(m)) == 1
    assert _limb_count(m, k, start + width, _limb_width(m)) == 2
    want = _periodicity_by_loop(m, k, start)
    with mock.patch.object(oracle, "_CHUNK", chunk):
        assert periodicity_window(MapParams(m), k, start) == want == (width, True)


def test_periodicity_window_validation():
    for k, start in ((0, 1), (21, 1), (5, -1)):
        with pytest.raises(ValueError):
            periodicity_window(T3, k, start)
