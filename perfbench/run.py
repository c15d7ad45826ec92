"""Benchmark of the mxplus1 command-line tool.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {table,verify} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Each operation of a workload (see workloads.py) is one fresh interpreter
calling mxplus1.cli.main(argv) or one library function, run from the
sources under src/.  Load is a closed loop from this one process: an
operation starts only after the previous one has ended, in pass order,
until the next one would end after --seconds.  Every operation runs at
least once.  Each output is checked (checks.py); a wrong output, an
unexpected exit code or a crash counts as a failed operation.

With --trace 0 the end-to-end metrics are printed: per-operation
medians summed over one pass (wall_s, cpu_s), the largest per-operation
median peak RSS, and the median set-up time of a fresh interpreter
importing mxplus1.cli and building its parser.  Work units per wall
second (work_per_s) and the error rate are printed on lines of their
own and kept in the result file, not in the result line: work_per_s is
a fixed work count over wall_s, so it moves only with wall_s, and the
error rate is the line's failed over attempted.
With --trace 1 every operation runs once untraced and once traced in
turn, and the per-layer metrics from the traced runs are printed, with
the traced minus the untraced wall_s as trace.overhead_s.  The span
sidecar goes to .perfbench/<workload>-seed<N>.spans.jsonl.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A result file with the provenance, the
resolved argv of every operation and every sample goes to
.perfbench/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
MARK = "@@perfbench "  # prefix of the timing line op.py writes to stderr

SETUP_SAMPLES = 11
OP_TIMEOUT_S = 150

# name -> unit
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Sample:
    op: str
    traced: bool
    rc: int | None
    elapsed_s: float
    stdout_bytes: int
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_kb: int | None = None
    error: str | None = None
    counters: dict = field(default_factory=dict)


def _spawn(spec: dict) -> tuple[int | None, bytes, str, float]:
    """Run op.py on spec and wait for it and everything it started."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "op.py"), json.dumps(spec)],
                            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        rc = None
    return rc, out, err.decode("utf-8", "replace"), time.perf_counter() - t0


def run_op(op: dict, traced: bool, sidecar=None) -> Sample:
    import checks

    spec = {k: op[k] for k in ("kind", "argv", "fn", "args") if k in op}
    shard = OUT / "span-shard.json"
    if traced:
        spec["trace_out"] = str(shard)
    rc, out, err, elapsed = _spawn(spec)
    sample = Sample(op=op["name"], traced=traced, rc=rc, elapsed_s=elapsed,
                    stdout_bytes=len(out))
    records = [line[len(MARK):] for line in err.splitlines() if line.startswith(MARK)]
    if not records:
        sample.error = f"no timing record (exit code {rc}): {err.strip()[-300:]}"
        return sample
    record = json.loads(records[-1])
    sample.wall_s = record["wall_s"]
    sample.cpu_s = record["cpu_s"]
    sample.peak_rss_kb = record["peak_rss_kb"]
    sample.error = checks.check(op, rc, out)
    if traced:
        import tracer

        trace = json.loads(shard.read_text(encoding="utf-8"))
        shard.unlink()
        sample.counters = tracer.op_counters(trace, op, sample.wall_s, len(out))
        if sidecar is not None:
            sidecar.write(json.dumps({"op": op["name"], **trace}, separators=(",", ":")))
            sidecar.write("\n")
    return sample


def _setup_s() -> float:
    return _spawn({"kind": "setup"})[3]


def measure(ops: list[dict], seconds: float, trace: bool,
            sidecar=None) -> tuple[list[Sample], list[float]]:
    """Closed loop over the pass, until the next operation would end
    after `seconds`; every (operation, mode) runs at least once.

    Untraced, set-up is timed SETUP_SAMPLES times, spread evenly over
    the run between operations, so that its median does not hang on
    one moment's load of the machine."""
    modes = (False, True) if trace else (False,)
    slots = [(op, mode) for op in ops for mode in modes]
    last: dict[int, float] = {}
    samples: list[Sample] = []
    setup: list[float] = []
    _setup_s()  # not counted: warms the file cache and bytecode
    start = time.perf_counter()
    deadline = start + seconds
    for i, (op, mode) in itertools.cycle(enumerate(slots)):
        now = time.perf_counter()
        if len(last) == len(slots) and now + last[i] > deadline:
            break
        if not trace and len(setup) < SETUP_SAMPLES * (now - start) / seconds:
            setup.append(_setup_s())
        sample = run_op(op, mode, sidecar)
        last[i] = sample.elapsed_s
        samples.append(sample)
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(_setup_s())
    return samples, setup


def _per_op(samples: list[Sample], traced: bool) -> dict[str, list[Sample]]:
    by_op: dict[str, list[Sample]] = defaultdict(list)
    for s in samples:
        if s.traced == traced and s.wall_s is not None:
            by_op[s.op].append(s)
    return by_op


def _median_sum(by_op: dict[str, list[Sample]], attr: str) -> float:
    return sum(statistics.median(getattr(s, attr) for s in group) for group in by_op.values())


def end_to_end(samples: list[Sample], setup: list[float]) -> dict[str, float]:
    by_op = _per_op(samples, traced=False)
    return {
        "wall_s": _median_sum(by_op, "wall_s"),
        "cpu_s": _median_sum(by_op, "cpu_s"),
        "peak_rss_mb": max((statistics.median(s.peak_rss_kb for s in group)
                            for group in by_op.values()), default=0) / 1024,
        "setup_s": statistics.median(setup),
    }


def layer_metrics(samples: list[Sample]) -> dict[str, float]:
    import tracer

    traced = _per_op(samples, traced=True)
    totals: dict[str, float] = defaultdict(float)
    for group in traced.values():
        keys = {k for s in group for k in s.counters}
        for key in keys:
            values = [s.counters.get(key, 0.0) for s in group]
            if key.endswith("peak_bits"):
                totals[key] = max(totals[key], max(values))
            else:
                totals[key] += statistics.median(values)
    overhead = _median_sum(traced, "wall_s") - _median_sum(_per_op(samples, False), "wall_s")
    return tracer.per_layer(totals, overhead)


def _first_line(path: str, prefix: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def provenance(load1: float) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=False)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1min_at_start": load1,
    }


def _loadavg_1min() -> float | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    load1 = _loadavg_1min()

    if not (ROOT / "src" / "mxplus1" / "cli.py").is_file():
        print(f"error: no mxplus1 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.size)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    trace = bool(args.trace)

    if trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as sidecar:
            samples, setup = measure(ops, args.seconds, True, sidecar)
    else:
        samples, setup = measure(ops, args.seconds, False)

    failed = sum(1 for s in samples if s.error is not None)
    if trace:
        import tracer

        metrics, units = layer_metrics(samples), tracer.PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(samples, setup), END_TO_END_UNITS
    reported = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}

    info = provenance(load1)
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace} seconds {args.seconds:g}")
    print("provenance " + json.dumps(info, sort_keys=True))
    for op in ops:
        runs = sum(1 for s in samples if s.op == op["name"])
        call = " ".join(op["argv"]) if op["kind"] == "cli" else f"{op['fn']}{tuple(op['args'])}"
        print(f"  op {op['name']:<26} runs {runs:>3}  {call}")
    for s in samples:
        if s.error is not None:
            print(f"  FAILED {s.op}{' (traced)' if s.traced else ''}: {s.error}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6f} {units[name]}")
    if not trace:
        timed = _per_op(samples, traced=False)
        work = sum(op["work"] for op in ops if op["name"] in timed)
        work_per_s = work / metrics["wall_s"] if metrics["wall_s"] else 0.0
        print(f"  {'work_per_s':<32} {work_per_s:>16.6f} 1/s")
    print(f"  {'error_rate':<32} {failed / len(samples):>16.6f} failed/attempted "
          f"({failed}/{len(samples)})")

    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "provenance": info,
        "ops": ops, "setup_samples_s": setup,
        "samples": [{k: v for k, v in asdict(s).items() if k != "counters"} for s in samples],
        "metrics": reported,
        "work_per_s": None if trace else work_per_s,
        "error_rate": failed / len(samples),
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n",
                                                        encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
