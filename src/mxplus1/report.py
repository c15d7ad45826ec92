"""Stable text serialization of series, cycles and oracle reports.

Counts and powers of two are always written as exact decimal strings;
they outgrow doubles long before the recursion slows down.  Floats are
rendered with 9 significant digits, switching to scientific notation
below 0.1.  Output uses LF line endings throughout.  Each format is a
generator of lines over any iterable of records, which the to_*
functions join and the CLI writes as each point is computed.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Union

from .density import DensityPoint, DensitySeries
from .diophantine import Cycle

if TYPE_CHECKING:
    from .oracle import OracleReport

CSV_HEADER = "k,N,pow2k,shaded,F_new,F_terras,G"

_LOG10_2 = math.log10(2.0)


def format_float(x: float) -> str:
    """9 significant digits; scientific with unpadded exponent under 0.1."""
    if x == 0:
        return "0.00000000"
    if x < 0:
        return "-" + format_float(-x)
    mant, exp = f"{x:.8e}".split("e")
    e = int(exp)
    if e >= -1:
        return f"{x:.{8 - e}f}"
    return f"{mant}e{e}"


def _digits(n: int) -> str:
    """Exact decimal digits of n, also past CPython's limit on int->str
    conversion (4300 digits by default), where str() raises."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # only here: importing it costs every run
        return str(Decimal(n))


def _csv_lines(points: Iterable[DensityPoint]) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    for pt in points:
        yield ",".join((str(pt.k), _digits(pt.N), _digits(1 << pt.k),
                        _digits(pt.shaded_count), format_float(pt.F_new),
                        format_float(pt.F_terras), format_float(pt.G))) + "\n"


def to_csv(series: DensitySeries) -> str:
    return "".join(_csv_lines(series.points))


def _density_record(m: int, pt: DensityPoint, variant: str) -> dict:
    return {
        "k": pt.k,
        "N": _digits(pt.N),
        "pow2k": _digits(1 << pt.k),
        "shaded": _digits(pt.shaded_count),
        "F_new": pt.F_new,
        "F_terras": pt.F_terras,
        "G": pt.G,
        "m": m,
        "variant": variant,
    }


def _cycle_record(m: int, cycle: Cycle) -> dict:
    return {"m": m, "length": cycle.length, "values": [str(v) for v in cycle.values]}


def _oracle_record(rep: OracleReport) -> dict:
    return {
        "m": rep.m,
        "k": rep.k,
        "offset": rep.offset,
        "table_N": str(rep.table_N),
        "count_coefficient_gt": str(rep.count_coefficient_gt),
        "count_coefficient_ge": str(rep.count_coefficient_ge),
        "count_actual_gt": str(rep.count_actual_gt),
        "discrepancy": rep.discrepancy,
    }


Record = Union[DensityPoint, Cycle, "OracleReport"]


def _json_lines(records: Iterable[Record], m: int | None, variant: str) -> Iterator[str]:
    for rec in records:
        if isinstance(rec, DensityPoint):
            if m is None:
                raise ValueError("m is required to serialize density points")
            obj = _density_record(m, rec, variant)
        elif isinstance(rec, Cycle):
            if m is None:
                raise ValueError("m is required to serialize cycles")
            obj = _cycle_record(m, rec)
        else:
            from .oracle import OracleReport  # only here: it loads numpy
            if not isinstance(rec, OracleReport):
                raise TypeError(f"cannot serialize {type(rec).__name__}")
            obj = _oracle_record(rec)
        yield json.dumps(obj, separators=(",", ":")) + "\n"


def to_json(records: Union[DensitySeries, Iterable[Record]], *, m: int | None = None,
            variant: str = "both") -> str:
    """One JSON object per line per record.  DensityPoint records need m
    (taken from the series when one is passed); OracleReport carries its
    own.  Big counts become exact decimal strings, never numbers."""
    if isinstance(records, DensitySeries):
        m, records = records.m, records.points
    return "".join(_json_lines(records, m, variant))


def _plot_lines(m: int, points: Iterable[DensityPoint]) -> Iterator[str]:
    yield f"# m={m}\n# k log10_F_new\n"
    for pt in points:
        yield f"{pt.k} {math.log10(pt.N) - pt.k * _LOG10_2:.10g}\n"


def to_plot_data(series: DensitySeries) -> str:
    """Two whitespace-separated columns, k and log10(F_new), computed
    from the exact integers so deep tails never underflow."""
    return "".join(_plot_lines(series.m, series.points))


def _table_lines(points: Iterable[DensityPoint], variant: str) -> Iterator[str]:
    """Fixed-width columns k and the chosen F values to 8 digits."""
    cols = {"both": ("Terras", "new"), "terras": ("Terras",), "new": ("new",)}[variant]
    yield "  ".join(["k".rjust(6)] + [c.rjust(14) for c in cols]) + "\n"
    for pt in points:
        vals = {"Terras": pt.F_terras, "new": pt.F_new}
        row = [str(pt.k).rjust(6)] + [f"{vals[c]:.8g}".rjust(14) for c in cols]
        yield "  ".join(row) + "\n"
