#!/usr/bin/env python3
"""Self-test of the SLATE benchmark runner.

    python3 slatebench/test/selftest.py

Run from the root of a checkout (it builds the runner on first use, like
slatebench/run.py). For every workload in BENCHMARK.json it runs a tiny
(one-second) run in each trace mode and checks that:
  - the result is correct and names every metric of the mode with its unit;
  - every end-to-end value is a positive finite number;
  - a second run with the same seed prints identical simulated metrics.
It also checks that the runner refuses to run, without printing a result,
from a directory holding only BENCHMARK.json and the benchmark's files.
Exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIMULATED = ["goodput_rps", "latency_p50_ms", "latency_p99_ms",
             "cost_usd_per_kreq", "success_share", "plan_cost"]
SEED = 7


def run(cwd, workload, trace, env=None):
    cmd = [sys.executable, "slatebench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, env=env)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = result["metrics"]
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    for name, unit in want.items():
        assert name in got, f"{section} metric {name} missing"
        assert got[name]["unit"] == unit, f"{name}: unit {got[name]['unit']}"
        assert math.isfinite(got[name]["value"]), f"{name} not finite"
    assert set(got) == set(want), sorted(set(got) - set(want))


def test_workloads():
    for w in SPEC["workloads"]:
        name = w["name"]
        first = result_of(run(ROOT, name, 0))
        check_metrics(first, "end_to_end")
        for m, v in first["metrics"].items():
            assert v["value"] > 0, f"{name}: {m} = {v['value']}"
        second = result_of(run(ROOT, name, 0))
        for m in SIMULATED:
            a = first["metrics"][m]["value"]
            b = second["metrics"][m]["value"]
            assert a == b, f"{name}: {m} differs across runs ({a} vs {b})"
        check_metrics(result_of(run(ROOT, name, 1)), "per_layer")
        print(f"ok {name}", flush=True)


def test_refuses_without_sources():
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bare = (build if build.is_absolute() else ROOT / build) / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p)
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    proc = run(bare, SPEC["workloads"][0]["name"], 0, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "runner succeeded without sources"
    assert proc.stdout.strip() == "", f"printed a result: {proc.stdout}"
    print("ok refuses without sources", flush=True)


if __name__ == "__main__":
    test_workloads()
    test_refuses_without_sources()
    print("selftest passed")
