"""Smoke self-check of the benchmark itself (not part of the test suite).

Run from the repository root:

    python3 perfbench/smoke.py

For a miniature of every workload it runs the benchmark untraced and traced
and checks the result schema against BENCHMARK.json: the keys of the last
line, every metric name and unit, the output checks, the digest field and
the accounting of the traced chain (startup + self times + exit = wall).
It also checks that the benchmark refuses to run where no sources exist.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SMOKE_SEED = 7
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message: str) -> None:
    raise SystemExit(f"smoke: FAIL: {message}")


def run_benchmark(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SMOKE_SEED),
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    for entry in spec["workloads"]:
        known = workloads.WORKLOADS.get(entry["name"])
        if set(entry) != {"name", "why"} or known is None or entry["why"] != known.why:
            fail(f"workload entry {entry['name']} differs from perfbench/workloads.py")
        if len(entry["why"]) > 200 or "\n" in entry["why"]:
            fail(f"why of {entry['name']} is not one line of at most 200 characters")
    seen = set()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(metric["name"]) or not UNIT.match(metric["unit"]) or metric["name"] in seen:
            fail(f"bad or repeated metric {metric}")
        seen.add(metric["name"])
        if metric["better"] not in ("higher", "lower"):
            fail(f"bad direction in {metric}")
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            fail(f"bad end-to-end entry {metric}")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layers != list(tracer.LAYER_METRICS) or any(set(m) != {"name", "unit", "better"}
                                                   for m in spec["per_layer"]):
        fail("per_layer in BENCHMARK.json differs from tracer.LAYER_METRICS")


def check_result(proc, expected_metrics: list[dict], label: str) -> tuple[dict, dict]:
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: correct={result['correct']} failed={result['failed']} {detail['problems']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted {result['attempted']!r}")
    wanted = {m["name"]: m["unit"] for m in expected_metrics}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != wanted:
        fail(f"{label}: metric names/units differ: {sorted(set(got) ^ set(wanted))}")
    for name, entry in result["metrics"].items():
        if set(entry) != {"value", "unit"} or not math.isfinite(entry["value"]):
            fail(f"{label}: metric {name} = {entry}")
    if not re.fullmatch(r"[0-9a-f]{64}", detail.get("digest") or ""):
        fail(f"{label}: digest field {detail.get('digest')!r}")
    for key in ("environment", "inputs", "chains", "chains_s", "stage_s"):
        if key not in detail:
            fail(f"{label}: detail lacks {key}")
    return result, detail


def check_accounting(detail: dict, label: str) -> None:
    acc = detail["accounting"]
    parts = acc["startup_ms"] + acc["self_ms"] + acc["exit_ms"]
    if abs(parts - acc["chain_ms"]) > 1.0:
        fail(f"{label}: startup + self + exit = {parts:.3f} ms, traced chain {acc['chain_ms']:.3f} ms")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_benchmark(bare, "corpus-small", 0, smoke=False)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("benchmark ran without ./src and printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    for name in workloads.WORKLOADS:
        _, detail = check_result(run_benchmark(ROOT, name, 0), spec["end_to_end"], f"{name} untraced")
        _, traced = check_result(run_benchmark(ROOT, name, 1), spec["per_layer"], f"{name} traced")
        check_accounting(traced, name)
        print(f"smoke: {name}: ok (digest {detail['digest'][:12]})")
    check_refuses_without_sources()
    print("smoke: refuses to run without sources: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
