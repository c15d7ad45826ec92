"""The operations of one workload pass, built from the workload seed.

Each operation is one fresh process (see op.py).  Besides what op.py
needs ("kind", "argv" or "fn"/"args"), an operation carries:

- "name": a stable label used in results and sidecar files;
- "work": work units it performs, summed into work_per_s;
- "check": the key of its output check in checks.py, with "expect"
  holding what that check needs to know about the inputs;
- "role": for oracle windows, which per-layer figure its time feeds.

Why these workloads:

- table: the paper's product.  Deep big-integer column recursion
  (density, bigmath) and, in the two stride-1 runs, serialization of
  14 MB of exact decimals (report).  No oracle work.
- verify: the brute-force and structural cross-checks.  Shallow table
  lookup only; the int64 and the exact oracle paths side by side, the
  same window at 1 and 2 worker processes, and a single-process
  discrepancy scan (oracle); then the cycle search (diophantine tree
  walk) and periodicity (trajectory parity vectors).  No deep
  recursion.

Two workloads, not more, so that each run can be long: the host's speed
drifts over minutes, and a longer run averages more of it.

Only the oracle offsets and the periodicity start depend on the seed;
the table inputs are fixed, so their outputs are byte-identical.
"""

from __future__ import annotations

import random

WORKLOADS = ("table", "verify")

# "tiny" keeps the shape of "full" at sizes the smoke test can afford.
SIZES = {
    "full": {"k_max": 6000, "fast": (3, 22), "exact": (5, 18), "scan": (3, 20),
             "cycles_k": 20, "period_k": 16},
    "tiny": {"k_max": 300, "fast": (3, 12), "exact": (5, 10), "scan": (3, 10),
             "cycles_k": 12, "period_k": 8},
}

# The int64 path is proven safe for m=3, k=22 on windows below 2**40;
# any start at or above 2**60 forces the exact big-integer path.  Both
# ranges keep every start far above the values where the actual and the
# coefficient stopping times can disagree, so the four oracle counts
# are the same at every seeded offset.
FAST_OFFSETS = (1 << 32, 1 << 40)
EXACT_OFFSETS = (1 << 60, 1 << 61)
PERIOD_STARTS = (0, 1 << 30)


def _cli(name: str, argv: list[str], work: int, check: str, **expect) -> dict:
    return {"name": name, "kind": "cli", "argv": argv, "work": work,
            "check": check, "expect": expect}


def _table(size: dict) -> list[dict]:
    k = size["k_max"]
    ops = []
    for fmt in ("csv", "json"):
        argv = ["density", "--m", "3", "--k-max", str(k), "--every", "1",
                "--format", fmt]
        ops.append(_cli(f"density-m3-{fmt}", argv, k, f"density_{fmt}", m=3, k_max=k))
    argv = ["density", "--m", "5", "--k-max", str(k), "--every", "100",
            "--format", "table"]
    ops.append(_cli("density-m5-table", argv, k, "density_table", m=5, k_max=k))
    return ops


def _oracle(name: str, m: int, k: int, offset: int, jobs: int, role: str) -> dict:
    argv = ["oracle", "--m", str(m), "--k", str(k), "--offset", str(offset),
            "--jobs", str(jobs)]
    op = _cli(name, argv, (1 << k) * k, "oracle", m=m, k=k, offset=offset)
    op["role"] = role
    return op


def _verify(size: dict, rng: random.Random) -> list[dict]:
    m, k = size["fast"]
    fast = rng.randrange(FAST_OFFSETS[0], FAST_OFFSETS[1] - (1 << k))
    em, ek = size["exact"]
    exact = rng.randrange(*EXACT_OFFSETS)
    sm, sk = size["scan"]
    scan = {"name": f"discrepancy-scan-m{sm}-k{sk}", "kind": "call",
            "fn": "discrepancy_scan", "args": [sm, sk, 1], "work": (1 << sk) * sk,
            "check": "scan", "expect": {"m": sm, "k": sk, "offset": 1}}
    return [
        _oracle(f"oracle-m{m}-k{k}-jobs2", m, k, fast, 2, "fast_jobs2"),
        _oracle(f"oracle-m{m}-k{k}-jobs1", m, k, fast, 1, "fast_jobs1"),
        # One worker: only the fast window compares 1 and 2 workers; on a
        # 2-core host a second pool here would mostly time that core's
        # availability.
        _oracle(f"oracle-m{em}-k{ek}-exact", em, ek, exact, 1, "exact"),
        scan,
    ]


def _structure(size: dict, rng: random.Random) -> list[dict]:
    ck = size["cycles_k"]
    nodes = (1 << (ck + 1)) - 1
    ops = [_cli(f"cycles-m{m}", ["cycles", "--m", str(m), "--k-max", str(ck)],
                nodes, "cycles", m=m, k_max=ck) for m in (3, 5)]
    pk = size["period_k"]
    start = rng.randrange(*PERIOD_STARTS)
    argv = ["verify-periodicity", "--m", "3", "--k", str(pk), "--start", str(start)]
    # Each start's vector is computed for it and for its shift by 2**k.
    ops.append(_cli("verify-periodicity-m3", argv, 2 << pk, "periodicity",
                    m=3, k=pk, start=start))
    return ops


def build(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The operations of one pass of `workload`, in the order they run."""
    sizes = SIZES[size]
    rng = random.Random(seed)
    if workload == "table":
        return _table(sizes)
    if workload == "verify":
        return _verify(sizes, rng) + _structure(sizes, rng)
    raise ValueError(f"unknown workload {workload!r}")
