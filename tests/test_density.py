import math
from dataclasses import replace

import pytest

from mxplus1 import (GREATER, LESS, T3, T5, MapParams, binomial_reference,
                     cmp_pow, density_series, initial_column, next_column)
from mxplus1.density import MAX_SERIES_K, _points

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


def test_row_accessor_reads_zero_above_band():
    full = _columns(T3, 10)[10]
    col = replace(initial_column(T3), top=8)
    for _ in range(10):
        col = next_column(col)
    assert (col.i_min, col.rows, col.N) == (7, (30, 25), full.N)
    assert [col.row(i) for i in range(12)] == \
        [full.row(i) for i in range(9)] + [0, 0, 0]


def test_band_empties_before_k_max():
    # i_top = 567 for m=3, k_max=900 (3**567 < 2**900 < 3**568); row 567
    # is shaded at k=899, so column 900 has no rows left, shades nothing
    # and only doubles N.  Column 901 would shade row 568, which the band
    # never held.
    assert cmp_pow(3, 567, 900) == LESS and cmp_pow(3, 568, 900) == GREATER
    full = initial_column(T3)
    col = replace(full, top=567)
    for _ in range(900):
        full = next_column(full)
        col = next_column(col)
        assert (col.N, col.shaded) == (full.N, full.shaded)
        if col.k == 899:
            assert col.rows == () and col.shaded.row == 567
    assert (col.rows, col.shaded, col.i_min) == ((), None, 568)
    with pytest.raises(ValueError):
        next_column(col)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
def test_band_series_equals_full_chain(m):
    # The series keeps only the band and takes N from the doubling
    # identity; the uncapped chain keeps every row and sums them.  For
    # many of these k_max (m=3: 3, 6, 9, ..., 900) the band empties
    # before k_max.
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
