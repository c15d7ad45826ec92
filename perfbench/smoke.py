"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

Run from the root of a checkout:

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _main(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv)
    return rc, out.getvalue().splitlines()


def _tiny(workload: str, seed: int, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
            "--trace", str(trace), "--size", "tiny"]


def test_every_metric_is_printed_with_its_unit():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = _main(_tiny(workload, 1, trace))
            result = json.loads(lines[-1])
            assert rc == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want
            printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
                       if len(line.split()) == 3}
            for name, unit in want.items():
                assert printed[name] == unit, name
            assert any(line.split()[:3] == ["error_rate", "0.000000", "failed/attempted"]
                       for line in lines)


def _corrupt(stdout: bytes) -> bytes:
    """Change the last digit of an output, the smallest plausible slip."""
    digits = list(re.finditer(rb"[0-9]", stdout))
    if not digits:
        return stdout + b"0"
    i = digits[-1].start()
    return stdout[:i] + str((int(stdout[i:i + 1]) + 1) % 10).encode() + stdout[i + 1:]


def test_corrupted_stdout_counts_in_error_rate():
    spawn = run._spawn

    def corrupting(spec):
        rc, out, err, elapsed = spawn(spec)
        return rc, _corrupt(out) if spec["kind"] != "setup" else out, err, elapsed

    run._spawn = corrupting
    try:
        for workload in workloads.WORKLOADS:
            _, lines = _main(_tiny(workload, 1, 0))
            result = json.loads(lines[-1])
            assert not result["correct"]
            assert result["failed"] == result["attempted"] >= 1
            assert any(line.split()[:2] == ["error_rate", "1.000000"] for line in lines)
    finally:
        run._spawn = spawn


def _oracle_outputs(seed: int) -> list[tuple[int, tuple[str, ...]]]:
    found = []
    for op in workloads.build("verify", seed, "tiny"):
        if op["check"] == "oracle":
            rc, out, _, _ = run._spawn({"kind": "cli", "argv": op["argv"]})
            lines = out.decode().splitlines()
            assert rc == 0
            found.append((op["expect"]["offset"], tuple(lines[1:])))
    return found


def test_seed_moves_oracle_offsets_but_not_counts_or_tables():
    a, b = _oracle_outputs(1), _oracle_outputs(2)
    assert [off for off, _ in a] != [off for off, _ in b]
    assert [counts for _, counts in a] == [counts for _, counts in b]
    for seed in (1, 2):
        for op in workloads.build("verify", seed, "full"):
            if op.get("role", "").startswith("fast"):
                assert op["expect"]["offset"] + (1 << op["expect"]["k"]) <= 1 << 40
            elif op.get("role") == "exact":
                assert op["expect"]["offset"] >= 1 << 60
    assert workloads.build("table", 1) == workloads.build("table", 2)
    csv = workloads.build("table", 1, "tiny")[0]
    outs = {run._spawn({"kind": "cli", "argv": op["argv"]})[1]
            for op in (csv, workloads.build("table", 2, "tiny")[0])}
    assert len(outs) == 1


def test_fails_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], *_tiny("table", 1, 0)],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
