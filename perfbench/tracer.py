"""Span tracing of the mxplus1 layers, from outside the package.

A traced operation process (op.py) builds a Tracer and calls install(),
which wraps every public function of the layer modules and rebinds each
name that refers to it anywhere in the package, so calls between
modules go through the wrappers too.  Each call becomes one span
[name index, start ns, end ns, parent span index, note] kept in memory;
dump() writes them as JSON when the operation ends.  Pool workers are
not traced: their time shows in the span of the call that waits for
them.

The parent side reads those files: op_counters() turns one operation's
span tree into additive counters (self time per layer, call counts,
bytes, ...), and per_layer() turns counters summed over a pass into the
per-layer metrics.  A layer's self time is its spans' durations minus
the time their direct children cover.  The untraced run imports none
of this.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "density", "bigmath", "report", "oracle", "diophantine", "trajectory")

# next_column cost is averaged over the columns k in (K - WINDOW, K].
COLUMN_KS = (1000, 3000, 6000)
COLUMN_WINDOW = 100

SERIALIZERS = ("report.to_csv", "report.to_json", "report.to_plot_data")


def _series_points(records) -> int:
    points = getattr(records, "points", None)
    return len(points) if points is not None else 0


def _k_max(args, kwargs) -> int:
    return args[1] if len(args) > 1 else kwargs["k_max"]


# What a span records beyond its timing, computed after its end time.
NOTES = {
    "density.next_column": lambda a, kw, r: [r.k, r.N.bit_length()],
    "diophantine.find_cycles": lambda a, kw, r: [_k_max(a, kw), len(r)],
    **{name: (lambda a, kw, r: [_series_points(a[0]), len(r)]) for name in SERIALIZERS},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        for layer in LAYERS:
            module = importlib.import_module(f"mxplus1.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for name, mod in list(sys.modules.items()):
                    if name == "mxplus1" or name.startswith("mxplus1."):
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def op_counters(trace: dict, op: dict, wall_s: float, stdout_bytes: int) -> dict:
    """Additive per-layer counters of one traced operation."""
    names, spans = trace["names"], trace["spans"]
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    c: dict[str, float] = defaultdict(float)
    peak_bits = 0
    for i, (index, start, end, parent, note) in enumerate(spans):
        name = names[index]
        layer = name.split(".", 1)[0]
        dur = (end - start) / 1e9
        own = dur - covered[i] / 1e9
        c["self." + layer] += own
        c["calls." + layer] += 1
        if name == "density.next_column":
            k, bits = note
            c["density.columns"] += 1
            peak_bits = max(peak_bits, bits)
            for K in COLUMN_KS:
                if K - COLUMN_WINDOW < k <= K:
                    c[f"column{K}.s"] += dur
                    c[f"column{K}.n"] += 1
        elif name == "density.density_series" and parent >= 0 \
                and names[spans[parent][0]].startswith("oracle."):
            c["density.table_lookup_s"] += dur
        elif name in ("bigmath.cmp_pow", "bigmath.ratio_to_float",
                      "trajectory.parity_vector"):
            c[name + ".s"] += dur
            c[name + ".n"] += 1
        elif name in SERIALIZERS:
            c[name + ".s"] += dur
            c["report.points"] += note[0]
            c["report.bytes"] += note[1]
        elif name == "oracle.count_window" and "role" in op:
            c[f"oracle.{op['role']}.s"] += own
            c[f"oracle.{op['role']}.work"] += op["work"]
        elif name == "oracle.discrepancy_scan":
            c["oracle.discrepancy_scan_s"] += dur
        elif name == "diophantine.find_cycles":
            k_max, cycles = note
            c["diophantine.find_cycles_s"] += dur
            c["diophantine.find_cycles.self"] += own
            c["diophantine.nodes"] += (1 << (k_max + 1)) - 1
            c["diophantine.cycles"] += cycles
    if op["kind"] == "cli":
        layers_s = sum(v for k, v in c.items() if k.startswith("self.") and k != "self.cli")
        c["cli.self_s"] = wall_s - layers_s
        c["cli.stdout_bytes"] = stdout_bytes
    c["density.peak_bits"] = peak_bits
    return dict(c)


# name -> unit, in the order they are printed.
PER_LAYER_UNITS = {
    "density.self_s": "s",
    "density.column_us.k1000": "us",
    "density.column_us.k3000": "us",
    "density.column_us.k6000": "us",
    "density.columns": "count",
    "density.peak_bits": "bits",
    "density.table_lookup_s": "s",
    "bigmath.cmp_pow_ns": "ns",
    "bigmath.ratio_to_float_ns": "ns",
    "bigmath.calls": "count",
    "report.self_s": "s",
    "report.to_csv_s": "s",
    "report.to_json_s": "s",
    "report.us_per_point": "us",
    "report.bytes": "bytes",
    "oracle.self_s": "s",
    "oracle.fast_ns_per_start_step": "ns",
    "oracle.exact_ns_per_start_step": "ns",
    "oracle.discrepancy_scan_s": "s",
    "oracle.jobs2_speedup": "x",
    "diophantine.find_cycles_s": "s",
    "diophantine.ns_per_node": "ns",
    "diophantine.cycles": "count",
    "trajectory.parity_vector_us": "us",
    "trajectory.calls": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


def per_layer(c: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from counters summed over one pass.  A layer
    the workload never calls reads 0."""
    c = defaultdict(float, c)

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return c[num] / c[den] * scale if c[den] else 0.0

    return {
        "density.self_s": c["self.density"],
        **{f"density.column_us.k{K}": ratio(f"column{K}.s", f"column{K}.n", 1e6)
           for K in COLUMN_KS},
        "density.columns": c["density.columns"],
        "density.peak_bits": c["density.peak_bits"],
        "density.table_lookup_s": c["density.table_lookup_s"],
        "bigmath.cmp_pow_ns": ratio("bigmath.cmp_pow.s", "bigmath.cmp_pow.n", 1e9),
        "bigmath.ratio_to_float_ns": ratio("bigmath.ratio_to_float.s",
                                           "bigmath.ratio_to_float.n", 1e9),
        "bigmath.calls": c["calls.bigmath"],
        "report.self_s": c["self.report"],
        "report.to_csv_s": c["report.to_csv.s"],
        "report.to_json_s": c["report.to_json.s"],
        "report.us_per_point": ratio("self.report", "report.points", 1e6),
        "report.bytes": c["report.bytes"],
        "oracle.self_s": c["self.oracle"],
        "oracle.fast_ns_per_start_step": ratio("oracle.fast_jobs1.s",
                                               "oracle.fast_jobs1.work", 1e9),
        "oracle.exact_ns_per_start_step": ratio("oracle.exact.s", "oracle.exact.work", 1e9),
        "oracle.discrepancy_scan_s": c["oracle.discrepancy_scan_s"],
        "oracle.jobs2_speedup": ratio("oracle.fast_jobs1.s", "oracle.fast_jobs2.s"),
        "diophantine.find_cycles_s": c["diophantine.find_cycles_s"],
        "diophantine.ns_per_node": ratio("diophantine.find_cycles.self",
                                         "diophantine.nodes", 1e9),
        "diophantine.cycles": c["diophantine.cycles"],
        "trajectory.parity_vector_us": ratio("trajectory.parity_vector.s",
                                             "trajectory.parity_vector.n", 1e6),
        "trajectory.calls": c["calls.trajectory"],
        "cli.self_s": c["cli.self_s"],
        "cli.stdout_bytes": c["cli.stdout_bytes"],
        "trace.overhead_s": overhead_s,
    }
