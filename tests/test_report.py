import csv
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxplus1 import (Cycle, DensityPoint, DensitySeries, MapParams, T3, count_window,
                     density_series, find_cycles, report, to_csv, to_json, to_plot_data)
from mxplus1.report import CSV_HEADER, format_float


def test_format_float_cases():
    assert format_float(0.0625) == "6.25000000e-2"
    assert format_float(0.07421875) == "7.42187500e-2"
    assert format_float(0.9375) == "0.937500000"
    assert format_float(1.0) == "1.00000000"
    assert format_float(0.0) == "0.00000000"
    assert format_float(0.1) == "0.100000000"
    assert format_float(1.0837e-17) == "1.08370000e-17"


def test_csv_golden_row_k10():
    series = density_series(T3, 10, 10)
    lines = to_csv(series).splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[-1] == "10,64,1024,12,6.25000000e-2,7.42187500e-2,0.937500000"


def test_csv_empty_series_is_header_only():
    assert to_csv(DensitySeries(m=3, points=[])) == CSV_HEADER + "\n"


def test_csv_k20_exact_count():
    series = density_series(T3, 20, 20)
    row = to_csv(series).splitlines()[-1]
    assert row.split(",")[1] == "27328"


def test_csv_roundtrip_exact_fields(series3_full):
    text = to_csv(series3_full)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(series3_full.points)
    for row, pt in zip(rows, series3_full.points):
        assert int(row["k"]) == pt.k
        assert int(row["N"]) == pt.N
        assert int(row["pow2k"]) == 1 << pt.k
        assert int(row["shaded"]) == pt.shaded_count


def test_json_density_point():
    series = density_series(T3, 0)
    rec = json.loads(to_json(series).splitlines()[0])
    assert rec == {"k": 0, "N": "1", "pow2k": "1", "shaded": "0",
                   "F_new": 1.0, "F_terras": 1.0, "G": 0.0,
                   "m": 3, "variant": "both"}


def test_json_cycle():
    cycles = [c for c in find_cycles(T3, 4) if c.values == (1, 2)]
    rec = json.loads(to_json(cycles, m=3))
    assert rec == {"m": 3, "length": 2, "values": ["1", "2"]}


def test_json_oracle():
    rep = count_window(T3, 5)
    rec = json.loads(to_json([rep]))
    assert rec["table_N"] == "4"
    assert rec["count_coefficient_gt"] == "4"
    assert rec["count_coefficient_ge"] == "6"
    assert rec["count_actual_gt"] == "5"
    assert rec["discrepancy"] == 1
    assert (rec["m"], rec["k"], rec["offset"]) == (3, 5, 1)


def test_json_big_counts_stay_strings(series3_full):
    text = to_json(series3_full)
    last = json.loads(text.splitlines()[-1])
    assert isinstance(last["N"], str)
    assert int(last["N"]) == series3_full.points[-1].N
    assert int(last["pow2k"]) == 1 << 900


def test_json_requires_m_for_points_and_cycles():
    pt = density_series(T3, 0).points[0]
    with pytest.raises(ValueError):
        to_json([pt])
    with pytest.raises(ValueError):
        to_json([Cycle((1, 2))])
    with pytest.raises(TypeError):
        to_json([object()], m=3)


def test_plot_data(series3_full):
    lines = to_plot_data(series3_full).splitlines()
    assert lines[0].startswith("#")
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "0 0"
    k10 = next(ln for ln in body if ln.startswith("10 "))
    assert k10.startswith("10 -1.2041")
    k900 = next(ln for ln in body if ln.startswith("900 "))
    assert k900.startswith("900 -16.965")


def test_lf_endings_everywhere():
    series = density_series(T3, 5)
    for text in (to_csv(series), to_json(series), to_plot_data(series)):
        assert "\r" not in text
        assert text.endswith("\n")


def test_counts_past_the_int_str_digit_limit():
    # At k = 15 000 the counts have about 4500 digits, past CPython's
    # default limit of 4300 on int -> str; they must still serialize.
    k = 15_000
    pt = DensityPoint(k=k, N=(1 << k) // 3 + 1, shaded_count=3**9100,
                      F_new=1 / 3, F_terras=0.5, G=2 / 3)
    series = DensitySeries(m=3, points=[pt])
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [str(pt.N), str(1 << k), str(pt.shaded_count)]
    finally:
        sys.set_int_max_str_digits(old)
    assert min(map(len, want)) > 4300
    row = to_csv(series).splitlines()[1].split(",")
    assert row[:4] == [str(k)] + want
    rec = json.loads(to_json(series))
    assert [rec["N"], rec["pow2k"], rec["shaded"]] == want


# The serializers carry N and 2**k in decimal instead of converting each
# point's ints.  This reference converts every count with str() and dumps
# every record whole, as the serializers did before the carry.

def _reference(series: DensitySeries, variant: str = "both") -> tuple[str, str]:
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rows = [(pt, str(pt.N), str(1 << pt.k), str(pt.shaded_count)) for pt in series.points]
    finally:
        sys.set_int_max_str_digits(old)
    csv_text = CSV_HEADER + "\n" + "".join(
        ",".join((str(pt.k), n, pow2, shaded, format_float(pt.F_new),
                  format_float(pt.F_terras), format_float(pt.G))) + "\n"
        for pt, n, pow2, shaded in rows)
    json_text = "".join(json.dumps(
        {"k": pt.k, "N": n, "pow2k": pow2, "shaded": shaded, "F_new": pt.F_new,
         "F_terras": pt.F_terras, "G": pt.G, "m": series.m, "variant": variant},
        separators=(",", ":")) + "\n" for pt, n, pow2, shaded in rows)
    return csv_text, json_text


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([3, 5, 7, 9, 11]), k_max=st.integers(0, 400),
       stride=st.integers(1, 50), variant=st.sampled_from(["both", "terras", "new"]))
def test_carried_counts_match_str_of_every_count(m, k_max, stride, variant):
    series = density_series(MapParams(m), k_max, stride)
    assert (to_csv(series), to_json(series, variant=variant)) == _reference(series, variant)


def _chain(k0: int, shaded: list[int]) -> list[DensityPoint]:
    """Consecutive points from k0 whose N obey N(k) = 2 N(k-1) - shaded(k)."""
    points, n = [], (1 << k0) // 3 + 1
    for k, s in enumerate(shaded, k0):
        if k > k0:
            n = 2 * n - s
        points.append(DensityPoint(k=k, N=n, shaded_count=s, F_new=n / 2**k,
                                   F_terras=(n + s) / 2**k, G=1 - n / 2**k))
    return points


def _shifted(pt: DensityPoint, dk: int = 0, dn: int = 0) -> DensityPoint:
    return DensityPoint(pt.k + dk, pt.N + dn, pt.shaded_count, pt.F_new, pt.F_terras, pt.G)


# k = 14 300 puts 2**k and N past CPython's 4300-digit limit on int -> str.
DEEP = _chain(14_300, [0, 3**9000, 0, 5**6000 + 1, 7, 0])


@pytest.mark.parametrize("points", [
    DEEP,
    DEEP[:3] + [_shifted(DEEP[3], dn=1)] + DEEP[4:],   # N off the identity by +1
    DEEP[:2] + [_shifted(pt, dk=1) for pt in DEEP[2:]],  # k jumps by 2, N still obeys
    [DEEP[2], DEEP[0], DEEP[1]],                        # k goes back, N does not obey
    _chain(0, [0, 1, 0, 0, 1]) + _chain(10, [2, 0, 5]),
], ids=["identity", "N-plus-1", "k-jump", "k-back", "small"])
def test_carried_counts_past_the_digit_limit(points):
    series = DensitySeries(m=3, points=points)
    assert (to_csv(series), to_json(series)) == _reference(series)


def test_carry_converts_only_the_first_n_and_2k_of_a_chain(monkeypatch):
    # Past the first point, N and 2**k of a chain come from the carry:
    # converting them from binary is what costs quadratic time.
    converted, digits = [], report._digits

    def spy(n: int) -> str:
        converted.append(n)
        return digits(n)

    monkeypatch.setattr(report, "_digits", spy)
    to_csv(DensitySeries(m=3, points=DEEP))
    first = DEEP[0]
    assert sorted(converted) == sorted([first.N, 1 << first.k]
                                       + [pt.shaded_count for pt in DEEP])
