"""Output checks behind the benchmark's error rate.

check(op, rc, stdout) returns None for a correct output and a one-line
reason otherwise.  Where it can, a check relies on data or code other
than the code that produced the output: published table rows, counts
frozen from an earlier run, an exact identity the recursion does not
use, and the trajectory module's own iteration for the oracle and the
cycle search.
"""

from __future__ import annotations

import hashlib
import json

from mxplus1.trajectory import (MapParams, iterate, stopping_time_actual,
                                stopping_time_coefficient)

# sha256 of the stdout of every table operation; the output is fixed
# for fixed flags, so any byte change is a failure.
STDOUT_SHA256 = {
    "density --m 3 --k-max 6000 --every 1 --format csv":
        "2fbb07d45db18484c18a0cddb22b59afce1d272fbdd581663bdee745cebecc10",
    "density --m 3 --k-max 6000 --every 1 --format json":
        "4b89f29763fabcaf95777e12ac8be6ed4ca201c3f6fd8c06c16efcbd13326404",
    "density --m 5 --k-max 6000 --every 100 --format table":
        "85cf9baeb5b0a1a596912818695ffd4559f78487742859da77e90e5b5e1d751a",
    "density --m 3 --k-max 300 --every 1 --format csv":
        "5e54719314bb87f06eb5d49f0f1d9ccbc33bc955c8d219a982f0e5c3c858463f",
    "density --m 3 --k-max 300 --every 1 --format json":
        "5c895e63d9283c643c0b151b6d2c2bdbe9cb1978d43841b21432103dee1da443",
    "density --m 5 --k-max 300 --every 100 --format table":
        "19127f7040c06e5b29b9210b7e7cc59fdc40b827b27332e62f249345542f396b",
}

# Published m=3 distribution (terras, new) as printed, and exact m=3
# window counts; the same frozen rows as the acceptance tests.
PUBLISHED_M3 = {
    10: ("7.4219e-2", "6.25e-2"), 20: ("2.8591e-2", "2.6062e-2"),
    30: ("1.1894e-2", "1.1894e-2"), 40: ("6.5693e-3", "5.8233e-3"),
    50: ("3.5373e-3", "3.3167e-3"), 60: ("1.9222e-3", "1.9222e-3"),
    70: ("1.1644e-3", "1.0516e-3"), 80: ("7.0744e-4", "6.6440e-4"),
    90: ("4.1078e-4", "4.1078e-4"), 100: ("2.6396e-4", "2.3868e-4"),
    200: ("3.3187e-6", "3.0604e-6"), 300: ("5.7714e-8", "5.4667e-8"),
    400: ("1.2191e-9", "1.1587e-9"), 500: ("2.7866e-11", "2.6584e-11"),
    600: ("6.7168e-13", "6.4455e-13"), 700: ("1.5719e-14", "1.5719e-14"),
    800: ("4.0963e-16", "4.0963e-16"), 900: ("1.0837e-17", "1.0837e-17"),
}
EXACT_N_M3 = {
    10: 64, 20: 27_328, 30: 12_771_274, 40: 6_402_835_000,
    50: 3_734_259_929_440, 60: 2_216_134_944_775_156,
    70: 1_241_503_538_986_719_152, 80: 803_209_913_882_910_595_105,
    90: 508_520_069_189_622_659_715_764,
    100: 302_560_669_500_543_257_546_172_187,
}
# Published m=5 distribution (terras, new), truncated to 8 decimals.
# The k=20 row is a known transcription defect and never emitted here.
PUBLISHED_M5 = {
    100: (0.18087772, 0.18060217), 200: (0.17688689, 0.17685114),
    300: (0.17622449, 0.17621811), 400: (0.17607927, 0.17607775),
    500: (0.17604079, 0.17604048), 600: (0.17603033, 0.17603024),
    700: (0.17602715, 0.17602715), 800: (0.17602622, 0.17602622),
    900: (0.17602593, 0.17602593),
}
# Truncation to 8 decimals plus rounding to 8 significant digits.
M5_TOLERANCE = 1.5e-8

# (m, k) -> table_N, count_coefficient_gt, count_coefficient_ge,
# count_actual_gt.  All four hold at every offset the workloads draw.
ORACLE_COUNTS = {
    (3, 22): (93222, 93222, 93222, 93222),
    (5, 18): (59850, 59850, 59850, 59850),
    (3, 12): (226, 226, 256, 226),
    (5, 10): (266, 266, 280, 266),
}
# (m, k, offset) -> number of discrepancy_scan entries.
SCAN_COUNTS = {(3, 20, 1): 1, (3, 10, 1): 1}

CYCLES_M3 = {
    (-1,), (0,), (1, 2), (-5, -7, -10),
    (-17, -25, -37, -55, -82, -41, -61, -91, -136, -68, -34),
}
CYCLES_M5_REQUIRED = {
    (1, 3, 8, 4, 2),
    (13, 33, 83, 208, 104, 52, 26),
    (17, 43, 108, 54, 27, 68, 34),
}
# The longest cycle in either census has an 11-step vector.
CENSUS_MIN_K = 11


def _sig_digits(printed: str) -> int:
    return len(printed.split("e")[0].replace(".", "").lstrip("0"))


def _matches_printed(value: float, printed: str) -> bool:
    d = _sig_digits(printed)
    return f"{value:.{d - 1}e}" == f"{float(printed):.{d - 1}e}"


def _check_points(rows: list[tuple[int, int, int, int, float, float]], k_max: int) -> str | None:
    """rows of (k, N, pow2k, shaded, F_new, F_terras) at every k."""
    if [r[0] for r in rows] != list(range(k_max + 1)):
        return "k column is not 0..k_max"
    prev_n = None
    for k, n, pow2k, shaded, f_new, f_terras in rows:
        if pow2k != 1 << k:
            return f"k={k}: pow2k is not 2**k"
        if prev_n is not None and n != 2 * prev_n - shaded:
            return f"k={k}: N(k) != 2N(k-1) - shaded(k)"
        prev_n = n
        if k in EXACT_N_M3 and n != EXACT_N_M3[k]:
            return f"k={k}: N differs from the published count"
        if k in PUBLISHED_M3:
            terras, new = PUBLISHED_M3[k]
            if not (_matches_printed(f_terras, terras) and _matches_printed(f_new, new)):
                return f"k={k}: F differs from the published row"
    return None


def _density_csv(lines: list[str], expect: dict) -> str | None:
    if lines[0] != "k,N,pow2k,shaded,F_new,F_terras,G":
        return "unexpected CSV header"
    rows = []
    for line in lines[1:]:
        k, n, pow2k, shaded, f_new, f_terras, _ = line.split(",")
        rows.append((int(k), int(n), int(pow2k), int(shaded), float(f_new), float(f_terras)))
    return _check_points(rows, expect["k_max"])


def _density_json(lines: list[str], expect: dict) -> str | None:
    rows = []
    for line in lines:
        rec = json.loads(line)
        if rec["m"] != expect["m"] or rec["variant"] != "both":
            return "unexpected m or variant in a JSON record"
        rows.append((rec["k"], int(rec["N"]), int(rec["pow2k"]), int(rec["shaded"]),
                     rec["F_new"], rec["F_terras"]))
    return _check_points(rows, expect["k_max"])


def _density_table(lines: list[str], expect: dict) -> str | None:
    if lines[0].split() != ["k", "Terras", "new"]:
        return "unexpected table header"
    rows = {}
    for line in lines[1:]:
        k, terras, new = line.split()
        rows[int(k)] = (float(terras), float(new))
    k_max = expect["k_max"]
    if sorted(rows) != sorted(set(range(0, k_max + 1, 100)) | {k_max}):
        return "table rows are not every 100th k"
    for k, (terras, new) in PUBLISHED_M5.items():
        if k > k_max:
            continue
        got = rows[k]
        if abs(got[0] - terras) > M5_TOLERANCE or abs(got[1] - new) > M5_TOLERANCE:
            return f"k={k}: F differs from the published m=5 row"
    return None


def _oracle(lines: list[str], expect: dict) -> str | None:
    fields = dict(line.split(" ", 1) for line in lines[1:])
    m, k, offset = expect["m"], expect["k"], expect["offset"]
    if lines[0] != f"m {m} k {k} offset {offset}":
        return "oracle header does not echo the inputs"
    got = tuple(int(fields[f]) for f in ("table_N", "count_coefficient_gt",
                                         "count_coefficient_ge", "count_actual_gt"))
    if got != ORACLE_COUNTS[(m, k)]:
        return f"oracle counts {got} differ from the reference"
    if fields["discrepancy"] != "0" or fields["match"] != "yes":
        return "oracle reports a discrepancy or no match"
    return None


def _scan(lines: list[str], expect: dict) -> str | None:
    m, k, offset = expect["m"], expect["k"], expect["offset"]
    found = [int(line) for line in lines]
    if found != sorted(set(found)) or any(not offset <= n < offset + (1 << k) for n in found):
        return "scan entries are not sorted, distinct and inside the window"
    if len(found) != SCAN_COUNTS[(m, k, offset)]:
        return f"scan found {len(found)} entries, reference differs"
    p = MapParams(m)
    for n in found:
        if stopping_time_actual(p, n, k).found == stopping_time_coefficient(p, n, k).found:
            return f"scan entry {n} is not a discrepancy"
    return None


def _cycles(lines: list[str], expect: dict) -> str | None:
    m, k_max = expect["m"], expect["k_max"]
    cycles = [tuple(int(v) for v in line.split()) for line in lines]
    found = set(cycles)
    if len(found) != len(cycles):
        return "a cycle is listed twice"
    if k_max >= CENSUS_MIN_K:
        if m == 3 and found != CYCLES_M3:
            return "m=3 census differs from the known cycles"
        if m == 5 and not CYCLES_M5_REQUIRED <= found:
            return "m=5 census misses a known cycle"
    p = MapParams(m)
    for c in cycles:
        values = iterate(p, c[0], len(c)).values
        if values[:-1] != c or values[-1] != c[0] or len(set(c)) != len(c):
            return f"cycle starting {c[0]} does not close under iteration"
    return None


def _periodicity(lines: list[str], expect: dict) -> str | None:
    m, k, start = expect["m"], expect["k"], expect["start"]
    want = [f"m {m} k {k} start {start}", f"distinct {1 << k} of {1 << k}",
            "repetition ok", "PASS"]
    return None if lines == want else "periodicity output is not a PASS"


_CHECKS = {
    "density_csv": _density_csv, "density_json": _density_json,
    "density_table": _density_table, "oracle": _oracle, "scan": _scan,
    "cycles": _cycles, "periodicity": _periodicity,
}


def check(op: dict, rc: int | None, stdout: bytes) -> str | None:
    """None when the operation exited 0 with a correct output, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    if op["kind"] == "cli" and op["check"].startswith("density_"):
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != STDOUT_SHA256.get(" ".join(op["argv"])):
            return "stdout differs from its committed sha256"
    try:
        text = stdout.decode("ascii")
        if text and not text.endswith("\n"):
            return "output does not end in a newline"
        return _CHECKS[op["check"]](text.splitlines(), op["expect"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
