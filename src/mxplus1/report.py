"""Stable text serialization of series, cycles and oracle reports.

Counts and powers of two are always written as exact decimal strings;
they outgrow doubles long before the recursion slows down.  csv and json
carry N and 2**k as exact Decimals, so that a line costs time linear in
its length, where str() of an int is quadratic.  Floats are
rendered with 9 significant digits, switching to scientific notation
below 0.1.  Output uses LF line endings throughout.  Each format is a
generator of lines over any iterable of records, which the to_*
functions join and the CLI writes as each point is computed.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Union

from .density import DensityPoint, DensitySeries
from .diophantine import Cycle

if TYPE_CHECKING:
    from .oracle import OracleReport

CSV_HEADER = "k,N,pow2k,shaded,F_new,F_terras,G"

_LOG10_2 = math.log10(2.0)


def format_float(x: float) -> str:
    """9 significant digits; scientific with unpadded exponent under 0.1."""
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


def _count_digits() -> Callable[[DensityPoint], tuple[str, str, str]]:
    """Maps each point of a series, in order, to the exact digits of its N,
    2**k and shaded count, in linear time: 2**k is carried by 2**(k - k_prev),
    N by N = 2 N_prev - shaded wherever the ints obey it (as consecutive
    points of a series do), and otherwise converted afresh.  No carry can
    round: the context holds MAX_PREC digits, trapping Inexact and Rounded."""
    from decimal import MAX_PREC, Context, Decimal, Inexact, Rounded  # importing it costs every run
    ctx = Context(prec=MAX_PREC, traps=[Inexact, Rounded])
    two = Decimal(2)
    prev = n = pow2 = None

    def digits(pt: DensityPoint) -> tuple[str, str, str]:
        nonlocal prev, n, pow2
        shaded = _digits(pt.shaded_count)
        if prev is not None and pt.k >= prev.k:
            pow2 = ctx.multiply(pow2, ctx.power(two, pt.k - prev.k))
        else:
            pow2 = Decimal(_digits(1 << pt.k))
        if prev is not None and pt.N == 2 * prev.N - pt.shaded_count:
            n = ctx.subtract(ctx.add(n, n), Decimal(shaded))
        else:
            n = Decimal(_digits(pt.N))
        prev = pt
        return str(n), str(pow2), shaded

    return digits


def _csv_lines(points: Iterable[DensityPoint]) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    digits = _count_digits()
    for pt in points:
        yield ",".join((str(pt.k), *digits(pt), format_float(pt.F_new),
                        format_float(pt.F_terras), format_float(pt.G))) + "\n"


def to_csv(series: DensitySeries) -> str:
    return "".join(_csv_lines(series.points))


Record = Union[DensityPoint, Cycle, "OracleReport"]


def _json_lines(records: Iterable[Record], m: int | None, variant: str) -> Iterator[str]:
    digits = tail = None
    for rec in records:
        if isinstance(rec, DensityPoint):
            if m is None:
                raise ValueError("m is required to serialize density points")
            digits = digits or _count_digits()
            # what json.dumps writes: float.__repr__ for a finite float (F is
            # in [0, 1]), and m and variant are the same on every line
            tail = tail or ',"m":{},"variant":{}}}\n'.format(json.dumps(m), json.dumps(variant))
            yield ('{{"k":{},"N":"{}","pow2k":"{}","shaded":"{}","F_new":{!r},'
                   '"F_terras":{!r},"G":{!r}').format(rec.k, *digits(rec), rec.F_new,
                                                       rec.F_terras, rec.G) + tail
            continue
        if isinstance(rec, Cycle):
            if m is None:
                raise ValueError("m is required to serialize cycles")
            obj = {"m": m, "length": rec.length, "values": [str(v) for v in rec.values]}
        else:
            from .oracle import OracleReport  # only here: it loads numpy
            if not isinstance(rec, OracleReport):
                raise TypeError(f"cannot serialize {type(rec).__name__}")
            obj = {
                "m": rec.m,
                "k": rec.k,
                "offset": rec.offset,
                "table_N": str(rec.table_N),
                "count_coefficient_gt": str(rec.count_coefficient_gt),
                "count_coefficient_ge": str(rec.count_coefficient_ge),
                "count_actual_gt": str(rec.count_actual_gt),
                "discrepancy": rec.discrepancy,
            }
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
