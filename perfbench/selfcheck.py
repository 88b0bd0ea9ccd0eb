#!/usr/bin/env python3
"""Self-check of the benchmark, at tiny input sizes.

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py --tiny`` untraced and traced with the
same seed and asserts that:
  * the last stdout line has exactly the keys correct/attempted/failed/metrics,
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is emitted, with its unit and nothing else,
  * the traced run attempts and fails the same ops as the untraced one.
It also asserts that the benchmark exits non-zero, printing no result, from a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(root, workload, trace, seed=7):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def _last_json(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, sorted(doc)
    assert isinstance(doc["correct"], bool)
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int) and 0 <= doc["failed"] <= doc["attempted"]
    return doc


def _check_metrics(doc, expected, what):
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == expected, f"{what}: metric names or units differ: " + json.dumps(
        {"missing": sorted(set(expected) - set(got)), "extra": sorted(set(got) - set(expected)),
         "unit": sorted(k for k in got if k in expected and got[k] != expected[k])})
    for name, m in doc["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)), name


def check_refuses_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = _run(bare, "special_functions", 0)
        assert proc.returncode != 0, "benchmark ran without the package sources"
        assert not proc.stdout.strip(), "benchmark printed output without the package"
    finally:
        shutil.rmtree(bare)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, layer = ({m["name"]: m["unit"] for m in spec[kind]}
                  for kind in ("end_to_end", "per_layer"))
    for workload in (w["name"] for w in spec["workloads"]):
        plain = _last_json(_run(ROOT, workload, 0))
        _check_metrics(plain, e2e, f"{workload} untraced")
        traced = _last_json(_run(ROOT, workload, 1))
        _check_metrics(traced, layer, f"{workload} traced")
        assert (plain["attempted"], plain["failed"]) == (traced["attempted"], traced["failed"]), (
            f"{workload}: traced run fails {traced['failed']}/{traced['attempted']}, "
            f"untraced {plain['failed']}/{plain['attempted']}")
        assert plain["correct"] == traced["correct"], workload
        print(f"ok {workload}: {len(e2e)} end-to-end and {len(layer)} per-layer metrics; "
              f"{plain['failed']}/{plain['attempted']} failed untraced, "
              f"{traced['failed']}/{traced['attempted']} traced")
    check_refuses_bare_directory()
    print("ok bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
