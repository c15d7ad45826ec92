import math
import multiprocessing
import os
from itertools import chain, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxplus1 import (GREATER, LESS, T3, T5, MapParams, binomial_reference,
                     cmp_pow, density, density_series, initial_column, next_column)
from mxplus1.bigmath import _coefficient_limits
from mxplus1.density import MAX_SERIES_K, DensityColumn, _points
from mxplus1.oracle import MAX_ORACLE_K

# The m=3 table through k=10: nonzero rows, the cell zeroed per column,
# and the totals row.
TABLE3_ROWS = {
    0: {0: 1},
    1: {1: 1},
    2: {2: 1},
    3: {2: 1, 3: 1},
    4: {3: 2, 4: 1},
    5: {4: 3, 5: 1},
    6: {4: 3, 5: 4, 6: 1},
    7: {5: 7, 6: 5, 7: 1},
    8: {6: 12, 7: 6, 8: 1},
    9: {6: 12, 7: 18, 8: 7, 9: 1},
    10: {7: 30, 8: 25, 9: 8, 10: 1},
}
TABLE3_SHADED = {1: (0, 1), 2: (1, 1), 4: (2, 1), 5: (3, 2),
                 7: (4, 3), 8: (5, 7), 10: (6, 12)}
TABLE3_TOTALS = (1, 1, 1, 2, 3, 4, 8, 13, 19, 38, 64)


def _columns(p, k_max):
    col = initial_column(p)
    cols = [col]
    for _ in range(k_max):
        col = next_column(col)
        cols.append(col)
    return cols


def test_initial_column():
    for p in (T3, T5):
        col = initial_column(p)
        assert (col.k, col.i_min, col.rows, col.N) == (0, 0, (1,), 1)
        assert col.shaded is None
    assert density_series(T3, 0).points[0].F_new == 1.0


def test_next_column_golden_transitions():
    cols = _columns(T3, 10)
    c5 = cols[5]
    assert dict(c5.items()) == {4: 3, 5: 1}
    assert c5.shaded == (3, 2)
    c6 = cols[6]
    assert dict(c6.items()) == {4: 3, 5: 4, 6: 1}
    assert c6.shaded is None
    c10 = cols[10]
    assert dict(c10.items()) == {7: 30, 8: 25, 9: 8, 10: 1}
    assert c10.shaded == (6, 12)
    assert c10.N == 64


def test_table3_golden_columns():
    cols = _columns(T3, 10)
    for k, col in enumerate(cols):
        assert dict(col.items()) == TABLE3_ROWS[k]
        assert col.N == TABLE3_TOTALS[k]
        if k in TABLE3_SHADED:
            assert col.shaded == TABLE3_SHADED[k]
        else:
            assert col.shaded is None


def test_row_accessor_reads_zero_outside():
    col = _columns(T3, 10)[10]
    assert col.row(7) == 30
    assert col.row(6) == 0
    assert col.row(11) == 0
    assert col.row(0) == 0


@pytest.mark.parametrize("p,k", [(T3, 10)], ids=["m3-uncapped"])
def test_column_rebuilt_from_public_fields_steps_like_chained(p, k):
    # A column carries no hidden state the next step needs: one rebuilt
    # from its public fields steps to the same columns as the chained
    # one.
    chained = initial_column(p)
    for _ in range(k):
        chained = next_column(chained)
    rebuilt = DensityColumn(m=chained.m, k=chained.k, i_min=chained.i_min,
                            rows=chained.rows, shaded=chained.shaded,
                            N=chained.N)
    for _ in range(200):
        assert rebuilt == chained
        chained = next_column(chained)
        rebuilt = next_column(rebuilt)
    assert rebuilt == chained


def test_table3_golden_diagonals():
    # Row r on diagonal e = k - r is the top row of the stripe of rows
    # 0..r, read off every step until row r is shaded; diagonal 0 is
    # all ones.  Rows die in order, so the i-th shaded pair is row i's.
    lim = _coefficient_limits(3, 20)
    cells = {(r, r): 1 for r in range(11)}
    for r in range(11):
        for e, (value, _) in enumerate(density._diagonals(lim, 0, r + 1, repeat((0, ()))), 1):
            if value and r + e <= 10:
                cells[r, r + e] = value
    assert cells == {(i, k): v for k, rows in TABLE3_ROWS.items() for i, v in rows.items()}
    steps = density._diagonals(lim, 0, 7, repeat((0, ())))
    pairs = list(chain.from_iterable(shaded for _, shaded in steps))
    assert {k: (i, count) for i, (k, count) in enumerate(pairs)} == TABLE3_SHADED


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_band_series_equals_full_chain(m):
    # The series keeps only the band and takes N from the doubling
    # identity; the uncapped chain keeps every row and sums them.  For
    # many of these k_max (m=3: 3, 6, 9, ..., 900) every row of the band
    # is shaded before k_max, and the later columns only double N.
    p = MapParams(m)
    col = initial_column(p)
    ref = []
    for k in range(1501):
        if k:
            col = next_column(col)
        n = sum(col.rows)
        f_new = n / 2**k
        ref.append((k, n, col.shaded_count,
                    f_new, (n + col.shaded_count) / 2**k, 1.0 - f_new))
    for k_max in [*range(201), 900, 1500]:
        for stride in (1, 7):
            got = [(pt.k, pt.N, pt.shaded_count, pt.F_new, pt.F_terras, pt.G)
                   for pt in density_series(p, k_max, stride).points]
            want = [ref[k] for k in range(k_max + 1) if k % stride == 0 or k == k_max]
            assert got == want, (k_max, stride)


@pytest.mark.parametrize("p", [T3, T5], ids=["m3", "m5"])
def test_structure_invariants(p):
    binom = binomial_reference(64)
    prev_imin = 0
    for col in _columns(p, 200):
        k = col.k
        # bottom diagonal is the all-odd row and stays 1
        assert col.rows[-1] == 1
        # contiguous block of positive counts
        assert all(v >= 1 for v in col.rows)
        assert len(col.rows) == k - col.i_min + 1
        # zeroed rows never come back
        assert col.i_min >= prev_imin
        prev_imin = col.i_min
        # every stored row passes the exact power test
        if k >= 1:
            assert cmp_pow(p.m, col.i_min, k) == GREATER
        # dominance by the plain Pascal triangle
        if k <= 64:
            for i, v in col.items():
                assert v <= binom[k][i]
        # the shaded row is the unique power crossing of this column
        # (at k=1 the crossing row is i=0 where m**0 equals 2**0 exactly)
        if col.shaded is not None:
            i_s = col.shaded.row
            assert cmp_pow(p.m, i_s, k) == LESS
            assert cmp_pow(p.m, i_s, k - 1) != LESS
        if k >= 1:
            crossing = any(
                cmp_pow(p.m, i, k - 1) != LESS and cmp_pow(p.m, i, k) == LESS
                for i in range(k + 1))
            assert crossing == (col.shaded is not None)


@pytest.mark.parametrize("p", [T3, T5], ids=["m3", "m5"])
def test_doubling_recurrence_small(p):
    prev = None
    for col in _columns(p, 300):
        if prev is not None:
            assert col.N == 2 * prev - col.shaded_count
        prev = col.N


def test_terras_equals_new_exactly_when_no_crossing():
    for col in _columns(T3, 120)[1:]:
        pt_equal = col.shaded_count == 0
        crossing = any(
            cmp_pow(3, i, col.k - 1) != LESS and cmp_pow(3, i, col.k) == LESS
            for i in range(col.k + 1))
        assert pt_equal == (not crossing)


def test_series_points_and_stride():
    s = density_series(T3, 10, 10)
    assert [pt.k for pt in s.points] == [0, 10]
    pt = s.points[-1]
    assert (pt.N, pt.shaded_count) == (64, 12)
    assert pt.F_new == 0.0625
    assert pt.F_terras == 0.07421875
    assert pt.G == 1.0 - 0.0625
    s = density_series(T3, 25, 10)
    assert [pt.k for pt in s.points] == [0, 10, 20, 25]
    assert s.points[2].N == 27328


def test_series_m5_golden_point():
    pt = density_series(T5, 10, 10).points[-1]
    assert (pt.N, pt.shaded_count) == (266, 14)
    assert pt.F_new == 0.259765625
    assert pt.F_terras == 0.2734375


def test_series_validation():
    with pytest.raises(ValueError):
        density_series(T3, -1)
    with pytest.raises(ValueError):
        density_series(T3, 100_001)
    with pytest.raises(ValueError, match="practical bound"):
        density_series(T3, MAX_SERIES_K + 1)
    with pytest.raises(ValueError):
        density_series(T3, 10, 0)


def test_point_generator_checks_on_call():
    # The checks run before the first point is asked for, so a caller can
    # validate before it opens anything to write to.
    for args in ((-1,), (MAX_SERIES_K + 1,), (10, 0)):
        with pytest.raises(ValueError):
            _points(T3, *args)


def _band(m, k_max):
    """The coefficient limits to k_max and the top row of the band."""
    lim = _coefficient_limits(m, k_max)
    return lim, max(lim[k_max] - 1, 0)


@given(m=st.sampled_from([3, 5, 7, 9, 11]), k_max=st.integers(4, 400),
       stride=st.integers(1, 9), data=st.data())
@settings(max_examples=40, deadline=None)
def test_split_series_equals_unsplit(m, k_max, stride, data):
    # Cut at any row, the lower stripe in a second process, feeding its
    # top row to the upper one here, gives the unsplit points, and both
    # give the uncapped column chain's totals and shaded counts.  No band
    # this small splits by itself.
    p = MapParams(m)
    split = data.draw(st.integers(1, _band(m, k_max)[1]), label="split")
    want = density_series(p, k_max, stride).points
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_split_row", lambda lim, top: split)
        assert density_series(p, k_max, stride).points == want
    assert multiprocessing.active_children() == []
    assert [(pt.k, pt.N, pt.shaded_count) for pt in want] == \
        [(col.k, col.N, col.shaded_count) for col in _columns(p, k_max)
         if col.k % stride == 0 or col.k == k_max]


def _force_split(monkeypatch):
    monkeypatch.setattr(density, "_split_row", lambda lim, top: top // 2)


def test_closing_the_points_stops_the_stripe_process(monkeypatch):
    _force_split(monkeypatch)
    points = _points(T3, 400)
    assert multiprocessing.active_children() == []
    assert next(points).k == 0
    assert len(multiprocessing.active_children()) == 1
    points.close()
    assert multiprocessing.active_children() == []


def test_dead_stripe_process_raises_before_a_wrong_point(monkeypatch):
    want = density_series(T3, 400).points
    stripe = density._lower_stripe

    class DiesAfterFirstBatch:
        def __init__(self, conn):
            self.conn = conn

        def send(self, batch):
            self.conn.send(batch)
            os._exit(3)

    monkeypatch.setattr(density, "_lower_stripe", lambda conn, *args:
                        stripe(DiesAfterFirstBatch(conn), *args))
    _force_split(monkeypatch)
    got = []
    with pytest.raises(RuntimeError, match="stripe process exited with code 3"):
        got.extend(_points(T3, 400))
    # Row i is shaded at k = bits(3**i), on diagonal k - i.  The points
    # come out right up to the last k the one batch sent shades, and end
    # before the first k whose shaded count needs a lost diagonal.
    shaded_at = {i: (3**i).bit_length() for i in range(_band(3, 400)[1] // 2)}
    last_sent = max(k for i, k in shaded_at.items() if k - i <= density._BATCH)
    first_lost = min(k for i, k in shaded_at.items() if k - i > density._BATCH)
    assert last_sent <= got[-1].k < first_lost
    assert got == want[:len(got)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus,m,k_max", [(1, 3, 6000), (None, 5, 6000), (64, 3, 3000),
                                          (64, 3, MAX_ORACLE_K)])
def test_no_stripe_process_on_one_core_or_a_small_band(monkeypatch, cpus, m, k_max):
    monkeypatch.setattr(density.os, "cpu_count", lambda: cpus)
    lim, top = _band(m, k_max)
    assert density._split_row(lim, top) == 0
    points = _points(MapParams(m), k_max)
    next(points)
    assert multiprocessing.active_children() == []
    points.close()


@pytest.mark.parametrize("m", [3, 5])
def test_big_band_splits_where_its_cost_halves(monkeypatch, m):
    monkeypatch.setattr(density.os, "cpu_count", lambda: 2)
    lim, top = _band(m, 6000)
    assert 0.78 < density._split_row(lim, top) / top < 0.80


def test_binomial_reference_golden():
    tri = binomial_reference(10)
    assert tri[10] == (1, 10, 45, 120, 210, 252, 210, 120, 45, 10, 1)
    assert tri[0] == (1,)
    assert sum(tri[9]) == 512
    for k, col in enumerate(tri):
        assert sum(col) == 1 << k
        # independent cross-check against direct combinatorics
        assert col == tuple(math.comb(k, i) for i in range(k + 1))


def test_binomial_reference_validation():
    with pytest.raises(ValueError):
        binomial_reference(-1)
    with pytest.raises(ValueError):
        binomial_reference(10_001)
