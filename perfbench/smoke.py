"""Smoke test of the benchmark harness; not part of the Tier-1 test run.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at tiny sizes for one second, with
and without tracing, and asserts that the last stdout line carries exactly
the metrics BENCHMARK.json names, each with its unit.  It also asserts that
the benchmark fails without a result in a directory holding only
BENCHMARK.json and the benchmark's files.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path


def run(spec: dict, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *spec["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_problems(done: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if set(result["metrics"]) != set(expected):
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(result['metrics']))}"
                        f", extra {sorted(set(result['metrics']) - set(expected))}")
    for name, m in result["metrics"].items():
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {expected[name]!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            done = run(spec, root, "--workload", workload["name"], "--seed", "1",
                       "--seconds", "1", "--trace", str(trace), "--size", "tiny")
            problems = result_problems(done, expected[trace])
            failures += bool(problems)
            print(f"{workload['name']} trace={trace}: {'; '.join(problems) or 'ok'}")
    bare = root / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "BENCHMARK.json").parent.mkdir(parents=True)
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(root / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(spec, bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        ok = done.returncode != 0 and '"metrics"' not in done.stdout
        failures += not ok
        print(f"bare directory: {'ok' if ok else f'exit {done.returncode}, printed a result'}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
