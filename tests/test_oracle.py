import multiprocessing
import random
import tracemalloc
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxplus1 import (T3, T5, MapParams, count_window, density_series,
                     discrepancy_scan, iterate, periodicity_window)
from mxplus1 import oracle
from mxplus1.oracle import MAX_ORACLE_K, MAX_PERIODICITY_K, _coefficient_limits, _parity_codes
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
    series = density_series(p, 12, 1)
    for k in range(1, 13):
        rep = count_window(p, k)
        assert rep.count_coefficient_ge - rep.count_coefficient_gt == \
            series.points[k].shaded_count


def _window(m: int, k: int, offset: int):
    """The four results of the window [offset, offset + 2**k)."""
    return oracle._scan_window(MapParams(m), k, offset, 1)


@contextmanager
def _spy_levels():
    """(j, r, v, k2) of every level of classes an in-process walk
    steps, before it prunes them, in order."""
    levels, children = [], oracle._children

    def spy(j, *args):
        out = children(j, *args)
        levels.append((j + 1, *out))
        return out

    with mock.patch.object(oracle, "_children", spy):
        yield levels


@contextmanager
def _spy_decided():
    """The starts an in-process walk decides one by one, in order."""
    starts, first_drops = [], oracle._first_drops

    def spy(m, n, cap):
        starts.append(n)
        return first_drops(m, n, cap)

    with mock.patch.object(oracle, "_first_drops", spy):
        yield starts


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
    # From chunks of one class (width 1) to the default width, the walk
    # is cut differently and reads the same window.
    base = count_window(T3, 10)
    for width in (1, 2, 4, 16, 64, 1 << 13):
        monkeypatch.setattr(oracle, "_WIDTH", width)
        assert count_window(T3, 10) == base
        assert discrepancy_scan(T3, 10) == [1]


def test_jobs_bit_identical(monkeypatch):
    # a width of 64 leaves 38 classes of the m=3 window of 2**12 after
    # the breadth-first phase, and one class step a worker starts a real
    # pool on any machine with more than one core; its workers are
    # forked, so that they walk at the patched width whatever the
    # platform's default start method
    from concurrent.futures import ProcessPoolExecutor
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        partial(ProcessPoolExecutor, mp_context=fork))
    monkeypatch.setattr(oracle, "_WIDTH", 64)
    monkeypatch.setattr(oracle, "POOL_MIN_STEPS", 1)
    seq = count_window(T3, 12, jobs=1)
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

    def map(self, fn, tasks, chunksize=1):
        self.tasks.append(len(tasks))
        return map(fn, tasks)


@pytest.mark.parametrize("cpus", [1, 2, 64, None])
def test_worker_count_capped(monkeypatch, cpus):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(oracle, "_usable_cores", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "tasks", [])
    # a width of 64 walks the m=3 window of 2**12 breadth first to the 38
    # classes of level 9, which leave at most 38*(2**4 - 2) = 532 class
    # steps: far too few for a worker at the default POOL_MIN_STEPS
    monkeypatch.setattr(oracle, "_WIDTH", 64)
    seq = count_window(T3, 12, jobs=1)
    assert count_window(T3, 12, jobs=5000) == seq
    assert _RecordingPool.sizes == []
    # at one step a worker, no more workers than jobs or cores; at 266,
    # two at most, and at 267 one, so no pool
    monkeypatch.setattr(oracle, "POOL_MIN_STEPS", 1)
    assert count_window(T3, 12, jobs=5000) == seq
    assert discrepancy_scan(T3, 12, jobs=3) == discrepancy_scan(T3, 12, jobs=1)
    for steps in (266, 267):
        monkeypatch.setattr(oracle, "POOL_MIN_STEPS", steps)
        assert count_window(T3, 12, jobs=5000) == seq
    cores = cpus or 1
    expected = [n for n in (min(5000, cores), min(3, cores), min(2, cores)) if n > 1]
    assert _RecordingPool.sizes == expected
    # each worker walks four parts of the 38 classes
    assert _RecordingPool.tasks == [4 * n for n in expected]
    # a window walked breadth first to level k leaves no steps, and
    # starts no pool
    monkeypatch.setattr(oracle, "POOL_MIN_STEPS", 1)
    monkeypatch.setattr(oracle, "_WIDTH", 1 << 13)
    assert count_window(T3, 12, jobs=5000) == seq
    assert _RecordingPool.sizes == expected


def _value_bound(m: int, k: int, stop: int) -> int:
    """Bound above every m*v + 1 computed within k steps of a start
    below stop: every value v is under (stop+1) * (m/2)**k."""
    return m * (((stop + 1) * m**k >> k) + 1) + 1


def _first_wide_stop(m: int, k: int) -> int:
    """Least stop whose starts' value bound reaches 2**62: past it,
    values no longer fit one int64."""
    lo, hi = 0, 1 << 62
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _value_bound(m, k, mid) >= 1 << 62 else (mid, hi)
    return hi


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("offset", [1, 7])
def test_fast_path_matches_exact_path(m, offset):
    # A window from the offset, and windows ending `offset` below and
    # above the bound past which values no longer fit one int64: the
    # walk's wrapping values read as the start-by-start scan on both
    # sides of it.
    for k in range(1, 11):
        bound = _first_wide_stop(m, k)
        for stop in (offset + (1 << k), bound - offset, bound + offset):
            start = stop - (1 << k)
            assert _window(m, k, start) == scan_exact(m, k, start, stop)


@given(m=st.sampled_from([3, 5, 7, 9]),
       k=st.integers(min_value=1, max_value=14),
       start=st.integers(min_value=1, max_value=1 << 24),
       width=st.sampled_from([1, 4, 64, 1 << 13]),
       near=st.booleans())
@settings(max_examples=300, deadline=None)
def test_window_at_any_width_equals_exact_scan(m, k, start, width, near):
    # Windows anywhere below 2**24, or ending at most 4 below the bound
    # past which values no longer fit one int64, walked in chunks of
    # one class (width 1) up to the default width.
    if near:
        start = _first_wide_stop(m, k) - 1 - start % 4 - (1 << k)
    with mock.patch.object(oracle, "_WIDTH", width):
        assert _window(m, k, start) == scan_exact(m, k, start, start + (1 << k))


@pytest.mark.parametrize("m", [3, 5, 7, 9, 2**40 + 1])
def test_every_class_of_the_walk_against_its_starts(m):
    # Every class the walk to level s reaches, against the scalar walk of
    # its starts n = r + u*2**j, u = 0..2: a class that drops at level j
    # has fc = j for each n, its value is T^(j)(r), below 2**(j+1), and n
    # drops in value at step j unless n = r and T^(j)(r) >= r; a class
    # left at level s has fc = 0.  Over the windows from 1 to 6*2**s, the
    # walk decides n one by one iff n does not drop in value at its fc.
    p = MapParams(m)
    for s in range(1, 11):
        lim = _coefficient_limits(m, s)
        with _spy_levels() as levels:
            _window(m, s, 1)
        for j, rs, vs, k2s in levels:
            for r, v, k2 in zip(rs.tolist(), vs.tolist(), k2s.tolist()):
                drop = k2 < lim[j]
                if drop:
                    assert v == iterate(p, r, j).values[-1] < 2 ** (j + 1)
                elif j < s:
                    continue
                for n in range(r or 2**j, r + 3 * 2**j, 2**j):
                    fc, fa = _first_drops(m, n, s)
                    assert fc == (j if drop else 0)
                    if drop:
                        assert (fa == j) == (n > r or v < r), (s, j, n)
        with _spy_decided() as decided:
            for t in range(6):
                _window(m, s, 1 + t * 2**s)
        want = []
        for n in range(1, 1 + 6 * 2**s):
            fc, fa = _first_drops(m, n, s)
            if fc and fa != fc:
                want.append(n)
        assert sorted(decided) == want, s


def test_every_start_but_the_least_drops_with_its_class():
    # At a drop at step j, T^(j)(r) - r < j/m, so n = r + u*2**j drops in
    # value for every u >= 1 iff 2**j - a >= j/m, a the largest power of
    # m below 2**j: so for every odd m < 27 and j <= 26 (past 26, j/m < 1
    # and 2**j - a >= 1).
    for m in range(3, 27, 2):
        for j in range(1, MAX_ORACLE_K + 1):
            a = 1
            while a * m < 2**j:
                a *= m
            assert m * (2**j - a) >= j, (m, j)


@given(m=st.sampled_from([3, 5, 7, 9, 2**40 + 1]),
       k=st.integers(min_value=2, max_value=14),
       offset=st.integers(min_value=1, max_value=16),
       width=st.sampled_from([1, 4, 64, 1 << 13]))
@settings(max_examples=300, deadline=None)
def test_low_windows_equal_exact_scan(m, k, offset, width):
    # Windows from the low starts 1 to 16, which hold the starts that
    # keep their value at their class's drop (1, 13 and 17 for m=5, the
    # least elements of its positive cycles), decided one by one.
    with mock.patch.object(oracle, "_WIDTH", width):
        assert _window(m, k, offset) == scan_exact(m, k, offset, offset + (1 << k))


def test_walk_steps_two_children_per_survivor():
    # The walk steps only the children of the classes with no
    # coefficient drop yet: at level j, summed over its chunks, 2*N(j-1)
    # of the 2**j classes, where N is the table's count (734 of the
    # 16384 classes mod 2**14 for m=3).
    with _spy_levels() as levels:
        count_window(T3, 22)
    stepped = dict.fromkeys(range(1, 23), 0)
    for j, r, _, _ in levels:
        stepped[j] += r.size
    series = density_series(T3, 22, 1)
    assert stepped == {j: 2 * series.points[j - 1].N for j in range(1, 23)}
    assert series.points[14].N == 734


@given(m=st.sampled_from([3, 5, 7, 9, 2**40 + 1]),
       k=st.integers(min_value=1, max_value=14),
       offset=st.integers(min_value=1, max_value=40)
       | st.integers(min_value=1, max_value=1 << 70),
       width=st.sampled_from([1, 4, 64, 1 << 13]))
@settings(max_examples=200, deadline=None)
def test_walk_decides_the_starts_that_keep_their_value(m, k, offset, width):
    # The walk decides one by one exactly the starts of the window that
    # do not drop in value at their first coefficient drop, in
    # increasing order.
    want = []
    for n in range(offset, offset + (1 << k)):
        fc, fa = _first_drops(m, n, k)
        if fc and fa != fc:
            want.append(n)
    with mock.patch.object(oracle, "_WIDTH", width), _spy_decided() as decided:
        _window(m, k, offset)
    assert decided == want


@given(m=st.sampled_from([3, 5, 7, 9, 2**40 + 1]),
       k=st.integers(min_value=1, max_value=11),
       width=st.sampled_from([1, 4, 64, 1 << 13]),
       where=st.sampled_from(["low", "far", "bound"]),
       shift=st.integers(min_value=0, max_value=1 << 70))
@settings(max_examples=150, deadline=None)
def test_window_sums_the_exact_scan(m, k, width, where, shift):
    # Windows from the low starts (1 to 16), anywhere,
    # and across the bound past which values no longer fit one int64,
    # walked in chunks of any width; their four results are
    # scan_exact's.
    if where == "low":
        offset = 1 + shift % 16
    elif where == "far":
        offset = 1 + shift
    else:
        offset = max(1, _first_wide_stop(m, k) - 1 - shift % (1 << k))
    with mock.patch.object(oracle, "_WIDTH", width):
        got = oracle._scan_window(MapParams(m), k, offset, 1)
    assert got == scan_exact(m, k, offset, offset + (1 << k))


def test_oracle_memory_is_bounded_by_the_width():
    # No level of the walk, breadth first or in a chunk, holds more than
    # _WIDTH classes, so the numpy buffers stay small: the tracemalloc
    # peaks of the start-by-start limb scan this walk replaced were
    # 624 464 and 624 468 bytes.  In both windows more than one chunk
    # reaches level k.
    runs = ((lambda: count_window(T5, 18, 2**60 + 1), 18),
            (lambda: discrepancy_scan(T3, 20), 20))
    for run, k in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 624_464
        with _spy_levels() as levels:
            run()
        assert max(r.size for _, r, _, _ in levels) <= oracle._WIDTH
        assert sum(j == k for j, _, _, _ in levels) > 1


def test_chunks_step_most_classes_in_wide_levels():
    # A chunk is cut in two only when its next level would pass _WIDTH
    # classes, so each half steps more than _WIDTH // 2: only the first
    # levels of the breadth-first phase, and chunks pruned thin, step
    # fewer, at most k of them here.  Every other level step takes at
    # least _WIDTH // 2 of the 2*N(j-1) class steps of level j,
    # S = 7 280 432 in all for m=5 at k=24, which bounds its level steps
    # by k + 2*S/_WIDTH = 1 801 (the worst-case slices this walk replaced
    # took 4 326).
    k = 24
    with _spy_levels() as levels:
        count_window(T5, k)
    series = density_series(T5, k, 1)
    steps = sum(2 * series.points[j - 1].N for j in range(1, k + 1))
    assert sum(r.size for _, r, _, _ in levels) == steps
    assert sum(r.size < oracle._WIDTH // 2 for _, r, _, _ in levels) <= k
    assert len(levels) <= k + 2 * steps // oracle._WIDTH


def test_m7_tallies_where_the_walk_wraps_uint64():
    # 7**23 exceeds 2**62, but the values of starts up to 2**16 stay
    # below 2**61, so they fit one int64 within 23 steps.  The walk
    # wraps the values of m=7 past 2**64 from k=23 on, and reads only
    # their parities: its window of 2**16 from 2**16 - 255 is the
    # start-by-start scan's, and at k=23 it reads the limb scan's tallies.
    assert _value_bound(7, 23, 2**16 + 1) < 2**61
    start = 2**16 - 255
    assert _window(7, 16, start) == scan_exact(7, 16, start, start + 2**16)
    rep = count_window(MapParams(7), 23, start)
    assert (rep.count_coefficient_gt, rep.count_coefficient_ge,
            rep.count_actual_gt) == (2583086, 2599072, 2583086)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_coefficient_limits_against_cmp_pow(m):
    lim = _coefficient_limits(m, 26)
    assert len(lim) == 27
    for j, i in enumerate(lim):
        assert cmp_pow(m, i, j) != LESS  # m**i >= 2**j ...
        assert i == 0 or cmp_pow(m, i - 1, j) == LESS  # ... and i is the least


@pytest.mark.parametrize("m,k", [(3, 10), (5, 10), (7, 8)])
def test_window_across_int64_bound(m, k):
    # A window across the bound past which values no longer fit one
    # int64 reads the start-by-start scan's four results and the near
    # window's counts, walked in chunks of one class, of a few and of the
    # default width.
    offset = _first_wide_stop(m, k) - (1 << (k - 1))
    p = MapParams(m)
    near = count_window(p, k, 1)
    gt, ge, agt, mism = scan_exact(m, k, offset, offset + (1 << k))
    for width in (1, 16, 1 << 13):
        with mock.patch.object(oracle, "_WIDTH", width):
            far = count_window(p, k, offset)
            assert discrepancy_scan(p, k, offset) == mism
        assert (far.count_coefficient_gt, far.count_coefficient_ge,
                far.count_actual_gt) == (gt, ge, agt)
        assert far.count_coefficient_gt == near.count_coefficient_gt == near.table_N
        assert far.count_coefficient_ge == near.count_coefficient_ge


@given(m=st.sampled_from([3, 5, 7, 9, 2**40 + 1, 2**70 + 1]),
       k=st.integers(min_value=1, max_value=12),
       shift=st.integers(min_value=0, max_value=1 << 100)
       | st.integers(min_value=1 << 99, max_value=1 << 100))
@settings(max_examples=200, deadline=None)
def test_windows_far_past_wide_values_equal_exact_scan(m, k, shift):
    # Every window ends past the bound where values no longer fit one
    # int64, from just past it to 2**100 beyond; the values of 2**40+1
    # and 2**70+1 wrap past 2**64 from their second odd step on.
    start = max(1, _first_wide_stop(m, k) - (1 << k)) + shift
    assert not hasattr(oracle, "_scan_exact")  # the reference lives in the tests
    assert _window(m, k, start) == scan_exact(m, k, start, start + (1 << k))


@pytest.mark.parametrize("m", [2**31 - 1, 2**40 + 1, 2**61 - 1, 3**40, 2**70 + 1,
                               2**64 + 1, 2**64 + 3])
def test_wide_multipliers_equal_exact_scan_and_codes(m):
    # Multipliers past 31 bits, 2**64 + 1 (m - 1 wraps to 0) and 2**64 + 3
    # (to 2) among them, at random 100-bit starts, which the stepper
    # takes mod 2**64.  The walk's windows there are the start-by-start
    # scan's, and the parity codes the one-by-one codes.
    rng = random.Random(m)
    for k in range(1, 13):
        start = rng.getrandbits(100)
        assert _window(m, k, start) == scan_exact(m, k, start, start + (1 << k))
        codes = _parity_codes(m, k, start, 64).tolist()
        assert codes == [_parity_code(m, n, k) for n in range(start, start + 64)]


def test_far_window_matches_near_window():
    # an offset far beyond the int64 bound; window invariance must still
    # hold
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


@given(m=st.sampled_from([3, 5, 7, 2**32 + 1, 2**40 + 1]),
       k=st.integers(min_value=1, max_value=12),
       start=st.integers(min_value=0, max_value=1 << 100),
       near=st.sampled_from([None, "int64", "uint32", "uint64"]),
       size=st.integers(min_value=1, max_value=1 << 10))
@settings(max_examples=200, deadline=None)
def test_parity_codes_equal_parity_code_loop(m, k, start, near, size):
    if near == "int64":
        # the range ends just past the bound where values no longer fit
        # one int64
        start = max(0, _first_wide_stop(m, k) - 1 - start % size)
    elif near == "uint32":
        # the range holds 2**32, where the stepper's lanes wrap
        start = (1 << 32) - start % size
    elif near == "uint64":
        # the range holds 2**64, where the starts wrap
        start = (1 << 64) - start % size
    codes = _parity_codes(m, k, start, size)
    assert codes.tolist() == [_parity_code(m, n, k) for n in range(start, start + size)]


@pytest.mark.parametrize("k", [MAX_PERIODICITY_K, 32])
@pytest.mark.parametrize("m", [3, 5, 2**31 + 1, 2**32 + 1, 2**64 + 1])
def test_parity_codes_to_the_lane_bound(m, k):
    # The stepper's uint32 lanes keep 32 - j exact bits after j steps, so
    # its codes are exact to length 32, and the bound must stay there.
    assert MAX_PERIODICITY_K <= 32
    # From starts where uint32 and uint64 wrap.  m - 1 is 2**31 for
    # m = 2**31 + 1, the lanes' top bit, and wraps to 0 on them for
    # 2**32 + 1 and 2**64 + 1.
    for start in (0, 2**32 - 2**8, 2**64 - 2**8):
        codes = _parity_codes(m, k, start, 300).tolist()
        assert codes == [_parity_code(m, n, k) for n in range(start, start + 300)]


def _periodicity_by_loop(m: int, k: int, start: int) -> tuple[int, bool]:
    width = 1 << k
    codes = [_parity_code(m, n, k) for n in range(start, start + 2 * width)]
    return len(set(codes[:width])), codes[:width] == codes[width:]


@pytest.mark.parametrize("m,k,start", [
    (3, 1, 0), (3, 8, 1), (5, 12, 12345), (7, 9, 2**100 - 3), (2**40 + 1, 6, 2**80),
    (3, 10, 2**64 - 2**9), (2**64 + 1, 8, 2**64 - 2**7),
])
def test_periodicity_window_equals_parity_code_loop(m, k, start):
    want = _periodicity_by_loop(m, k, start)
    assert want == (1 << k, True)
    for chunk in (1 << 16, 7, (1 << k) // 2 + 1):
        with mock.patch.object(oracle, "_CHUNK", chunk):
            assert periodicity_window(MapParams(m), k, start) == want


@pytest.mark.parametrize("m,k", [(3, 10), (5, 11), (7, 8)])
def test_periodicity_window_in_eight_chunks(m, k):
    # The window ends at the bound past which values no longer fit one
    # int64, so the shifted window lies past it.
    width = 1 << k
    start = _first_wide_stop(m, k) - width
    chunk = width // 8
    want = _periodicity_by_loop(m, k, start)
    with mock.patch.object(oracle, "_CHUNK", chunk):
        assert periodicity_window(MapParams(m), k, start) == want == (width, True)


def test_periodicity_window_validation():
    for k, start in ((0, 1), (21, 1), (5, -1)):
        with pytest.raises(ValueError):
            periodicity_window(T3, k, start)


def _codes_without_the_one(m: int, k: int, start: int, size: int) -> np.ndarray:
    """_parity_codes of the wrong map: odd values step to m*v/2, the + 1
    dropped.  Its parity vectors repeat with period 2**k too."""
    codes = []
    for v in range(start, start + size):
        code = 0
        for j in range(k):
            code |= (v & 1) << j
            v = (m * v if v & 1 else v) >> 1
        codes.append(code)
    return np.array(codes, dtype=np.uint32)


@pytest.mark.parametrize("stepper", [
    _codes_without_the_one,
    lambda m, k, start, size: _parity_codes(m + 2, k, start, size),  # another odd map
])
def test_periodicity_window_refuses_a_stepper_of_another_map(stepper):
    for m, k, start in ((3, 8, 1), (5, 12, 12345), (3, 10, 2**70)):
        with mock.patch.object(oracle, "_parity_codes", stepper):
            with pytest.raises(RuntimeError, match="not the map's"):
                periodicity_window(MapParams(m), k, start)
