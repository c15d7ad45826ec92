"""Command-line surface binding the library into reproducible runs.

Exit codes are a stable contract: 0 success (and, for `oracle`, table
agreement), 1 verified-property failure (oracle mismatch, periodicity
violation), 2 usage error; a reader that closes stdout early (`| head`)
ends the run quietly with 141, the status a shell gives SIGPIPE.
Identical flags produce byte-identical output, so runs can be diffed and
wired into CI directly.  Only the library checks arguments, and a usage
error names the flag at fault.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import closing
from typing import Iterable

from . import report
from .density import _points
from .diophantine import _start_vector, classify, find_cycles
from .trajectory import MapParams, StoppingTimeResult, _first_drops, iterate


def _write_lines(lines: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(lines)
    else:
        try:
            fh = open(out, "w", encoding="utf-8", newline="\n")
        except OSError as exc:  # a usage error: the path, not a property, is at fault
            raise ValueError(f"out cannot be written: {exc.strerror}: {out}") from None
        with fh:
            fh.writelines(lines)


def _cmd_density(args) -> int:
    # built (and so validated) before the sink opens: a usage error
    # writes nothing, and each line goes out as its column is computed
    points = _points(MapParams(args.m), args.k_max, args.stride)
    if args.format == "csv":
        lines = report._csv_lines(points)
    elif args.format == "json":
        lines = report._json_lines(points, args.m, args.variant)
    elif args.format == "plot":
        lines = report._plot_lines(args.m, points)
    else:
        lines = report._table_lines(points, args.variant)
    with closing(points):  # stops the stripe process on an early exit too
        _write_lines(lines, args.out)
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import count_window  # numpy: only the scans load it
    rep = count_window(MapParams(args.m), args.k, args.offset, jobs=args.jobs)
    if args.format == "json":
        text = report.to_json([rep])
    else:
        text = (
            f"m {rep.m} k {rep.k} offset {rep.offset}\n"
            f"table_N {rep.table_N}\n"
            f"count_coefficient_gt {rep.count_coefficient_gt}\n"
            f"count_coefficient_ge {rep.count_coefficient_ge}\n"
            f"count_actual_gt {rep.count_actual_gt}\n"
            f"discrepancy {rep.discrepancy}\n"
            f"match {'yes' if rep.matches_table else 'no'}\n"
        )
    _write_lines((text,), args.out)
    return 0 if rep.matches_table else 1


def _cmd_trajectory(args) -> int:
    traj = iterate(MapParams(args.m), args.n, args.k)
    _write_lines((" ".join(str(v) for v in traj.values) + "\n",), args.out)
    return 0


def _cmd_stopping(args) -> int:
    fc, fa = _first_drops(MapParams(args.m).m, args.n, args.cap)
    actual, coeff = (StoppingTimeResult(j or None, args.cap) for j in (fa, fc))
    _write_lines((f"actual: {actual}\ncoefficient: {coeff}\n",), args.out)
    return 0


def _cmd_vector(args) -> int:
    w, eq, r = _start_vector(MapParams(args.m), args.n, args.k)
    # a is odd and b a power of two, so a != b for every non-empty vector
    kind = classify(eq).value
    text = (
        f"bits {''.join(map(str, w.bits))}\n"
        f"equation {eq.c} = {eq.b}y - {eq.a}x\n"
        f"residue {r} mod {1 << args.k}\n"
        f"classification {kind}\n"
    )
    _write_lines((text,), args.out)
    return 0


def _cmd_cycles(args) -> int:
    cycles = find_cycles(MapParams(args.m), args.k_max)
    if args.format == "json":
        text = report.to_json(cycles, m=args.m)
    else:
        text = "".join(" ".join(str(v) for v in c.values) + "\n" for c in cycles)
    _write_lines((text,), args.out)
    return 0


def _cmd_verify_periodicity(args) -> int:
    from .oracle import periodicity_window
    distinct, repeats_ok = periodicity_window(MapParams(args.m), args.k, args.start)
    width = 1 << args.k
    distinct_ok = distinct == width
    text = (
        f"m {args.m} k {args.k} start {args.start}\n"
        f"distinct {distinct} of {width}\n"
        f"repetition {'ok' if repeats_ok else 'violated'}\n"
        f"{'PASS' if distinct_ok and repeats_ok else 'FAIL'}\n"
    )
    _write_lines((text,), args.out)
    return 0 if distinct_ok and repeats_ok else 1


# name -> (help, handler, the arguments after --m and --out), in help order
_COMMANDS = {
    "density": ("run the column recursion and export the series", _cmd_density, (
        ("--k-max", dict(type=int, required=True, help="last column to compute")),
        ("--every", dict(type=int, default=1, dest="stride", metavar="EVERY",
                         help="emit a point every this many k")),
        ("--variant", dict(choices=("new", "terras", "both"), default="both")),
        ("--format", dict(choices=("csv", "json", "plot", "table"), default="csv")),
    )),
    "oracle": ("brute-force a window and compare with the table", _cmd_oracle, (
        ("--k", dict(type=int, required=True, help="window is 2**k starts, k steps")),
        ("--offset", dict(type=int, default=1, help="first integer of the window")),
        ("--jobs", dict(type=int, default=1,
                        help="worker processes, started only when the window is "
                             "large enough to pay for them")),
        ("--format", dict(choices=("text", "json"), default="text")),
    )),
    "trajectory": ("print a trajectory", _cmd_trajectory, (
        ("--n", dict(type=int, required=True)),
        ("--steps", dict(type=int, required=True, dest="k", metavar="STEPS")),
    )),
    "stopping": ("both stopping-time notions side by side", _cmd_stopping, (
        ("--n", dict(type=int, required=True)),
        ("--cap", dict(type=int, default=1000)),
    )),
    "vector": ("parity vector, its equation and residue class", _cmd_vector, (
        ("--n", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
    )),
    "cycles": ("enumerate cycles up to a vector length", _cmd_cycles, (
        ("--k-max", dict(type=int, required=True)),
        ("--format", dict(choices=("text", "json"), default="text")),
    )),
    "verify-periodicity": ("check vector distinctness and window repetition",
                           _cmd_verify_periodicity, (
        ("--k", dict(type=int, required=True)),
        ("--start", dict(type=int, default=1)),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone when it names
    one, which is all `main` needs.  The pruned parser pins every name in
    its usage line, so that its errors read as the full parser's; the full
    parser keeps argparse's own metavar, which its "invalid choice" and
    "required" messages name."""
    parser = argparse.ArgumentParser(
        prog="mxplus1",
        description="Stopping-time distribution tables for mx+1 maps, "
                    "with an exact column recursion and a brute-force cross-check.")
    if command in _COMMANDS:
        names, metavar = (command,), "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = _COMMANDS, None
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_, func, arguments = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_)
        sub.add_argument("--m", type=int, default=3,
                         help="odd multiplier >= 3 (3 and 5 are the classic maps)")
        sub.add_argument("--out", default=None, help="write output to this path")
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(parser=sub, func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        msg = str(exc)
    except BrokenPipeError:
        # stdout goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    # a leading parameter name becomes its flag; other messages pass as written
    name = re.match(r"\w*", msg).group()
    for action in args.parser._actions:
        if action.dest == name:
            msg = action.option_strings[0] + msg[len(name):]
    print(f"error: {msg}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
