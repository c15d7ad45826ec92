"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/op.py '<op spec as JSON>'

The spec's "kind" is "setup" (import mxplus1.cli and build the parser,
nothing else), "cli" (call mxplus1.cli.main(argv)) or "call" (call a
library function that has no subcommand and print its result, one item
a line).  The operation's own output goes to stdout untouched.  When the
operation returns, one line starting with MARK goes to stderr with the
wall time and CPU time from after import to return, and the peak RSS of
this process and of its reaped children (pool workers).  The own peak
is VmHWM, which starts afresh at exec; getrusage's ru_maxrss would also
count the resident set of the benchmark process this one was forked
from.  With a "trace_out" path in the spec, the public functions of the
package are wrapped by perfbench/tracer.py and the spans are written to
that path.  The exit code is the operation's.
"""

import json
import os
import resource
import sys
import time

MARK = "@@perfbench "

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import mxplus1.cli  # noqa: E402
import mxplus1.oracle  # noqa: E402
from mxplus1.trajectory import MapParams  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    own = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _run(spec: dict) -> int:
    # Attributes are looked up at call time, so a traced run reaches the
    # tracer's wrappers.
    if spec["kind"] == "cli":
        return mxplus1.cli.main(spec["argv"])
    if spec["fn"] != "discrepancy_scan":
        raise ValueError(f"no library call named {spec['fn']!r}")
    m, k, offset = spec["args"]
    found = mxplus1.oracle.discrepancy_scan(MapParams(m), k, offset)
    sys.stdout.write("".join(f"{n}\n" for n in found))
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["kind"] == "setup":
        mxplus1.cli.build_parser()
        return 0
    tracer = None
    if spec.get("trace_out"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    cpu0 = _cpu_s()
    rc = _run(spec)
    sys.stdout.flush()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    if tracer is not None:
        tracer.dump(spec["trace_out"])
    record = {"wall_s": wall, "cpu_s": cpu, "peak_rss_kb": _peak_rss_kb()}
    sys.stderr.write(MARK + json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
