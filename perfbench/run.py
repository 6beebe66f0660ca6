"""tagtrack benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload demo --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics instead.  The workload runs in one child process (so its
peak RSS is its own); set-up time is measured in separate fresh
interpreters, one at a time.  All of them are pinned to one CPU whose
steal time is subtracted from every timing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import pin_to_one_cpu, pinned_cpu, stolen_s

HERE = Path(__file__).resolve().parent
WORKLOADS = ("demo", "gestures", "import_track")
SETUP_PROBES = 7         # fresh interpreters timed per run, after one warm-up
WORK_DIR = ".bench_work"  # kept between runs, see worker.py
CHILD_TIMEOUT_S = 120    # on top of --seconds; a run must end within 180 s
PROBE = ("import time, sys\n"
         "sys.path.insert(0, 'src')\n"
         "import tagtrack.cli\n"
         "from tagtrack.config import load_config\n"
         "load_config()\n"
         "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n")


def setup_seconds(root: Path) -> list[float]:
    """Fresh interpreter until tagtrack is imported and the default config validated.

    CLOCK_MONOTONIC is one clock for the whole system on Linux, so the
    child's stamp and the parent's start time compare directly.  Steal time
    of the pinned CPU is subtracted (it is counted in 10 ms ticks).
    """
    cpu = pinned_cpu()
    times = []
    for _ in range(SETUP_PROBES + 1):
        stolen0 = stolen_s(cpu)
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", PROBE], cwd=root, check=True,
                              capture_output=True, text=True, timeout=60)
        stolen = stolen_s(cpu) - stolen0
        times.append(float(done.stdout.split()[-1]) - t0 - stolen)
    return times[1:]


def run_worker(root: Path, args, work: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), args.size, str(work)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(raw: dict, setup: list[float]) -> dict:
    wall = statistics.median(raw["walls"])
    return {
        "wall_s": metric(wall, "s"),
        "windows_per_s": metric(raw["tag_windows"] / wall, "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
    }


LAYER_UNITS = {
    "simulate.calls": "count", "simulate.self_s": "s", "simulate.us_per_window": "us",
    "readerlog.write_s": "s", "readerlog.read_s": "s", "readerlog.files_written": "count",
    "readerlog.bytes_written": "B", "readerlog.files_read": "count",
    "preprocess.window_s": "s", "preprocess.windows_io_s": "s",
    "preprocess.windows_out": "count", "preprocess.window_yield": "ratio",
    "music.calls": "count", "music.us_per_window": "us", "music.valid_ratio": "ratio",
    "music.spectrum_evals_per_window": "count",
    "tracking.tracks": "count", "tracking.filter_us_per_window": "us",
    "tracking.smooth_us_per_window": "us", "tracking.skipped_update_ratio": "ratio",
    "features.self_s": "s", "features.us_per_sample": "us", "features.imputed_ratio": "ratio",
    "classify.dtw_s": "s", "classify.dtw_cells": "count", "classify.dtw_ns_per_cell": "ns",
    "classify.knn_us_per_query": "us",
    "pipeline.self_s": "s", "cli.self_s": "s", "config.load_s": "s",
}
QUALITY_UNITS = {"error_rate": "ratio", "accuracy_SPRA_pct": "%", "knn_gain_pts": "pts",
                 "dtw_gain_pts": "pts", "track_rmse_deg": "deg", "artifact_files": "count",
                 "artifact_mb": "MB"}


def per_layer(raw: dict) -> dict:
    """Per-layer metrics of the traced repeats, plus the workload's quality outputs.

    A layer the workload does not run reports 0, and so does a quality
    output the workload does not produce.
    """
    out = {name: metric(raw["layers"][name], unit) for name, unit in LAYER_UNITS.items()}
    traced = statistics.median(raw["traced_walls"])
    untraced = statistics.median(raw["walls"])
    out["trace.overhead_pct"] = metric(100.0 * (traced / untraced - 1.0), "%")
    out.update(quality(raw))
    return out


def quality(raw: dict) -> dict:
    values = dict(raw["quality"], error_rate=raw["failed"] / raw["attempted"])
    return {name: metric(values.get(name, 0), unit) for name, unit in QUALITY_UNITS.items()}


def describe(args, raw: dict, metrics: dict):
    "Human-readable lines ahead of the final JSON line."
    walls = raw["walls"] + raw["traced_walls"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size} repeats={len(walls)} "
          f"attempted={raw['attempted']} failed={raw['failed']}")
    env = raw["env"]
    print(f"env: fs={env['fs_type']} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} cpu={env['cpu']!r} "
          f"python={env['python']} numpy={env['numpy']}")
    print(f"pinned to cpu {env['pinned_cpu']}; steal time subtracted from every timing")
    q1, q3 = quartiles(raw["walls"])
    print(f"untraced wall per repeat: median {statistics.median(raw['walls']):.4f} s, "
          f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(raw['walls'])}: "
          + " ".join(f"{w:.3f}" for w in raw["walls"]))
    print("wall per repeat before subtracting steal: "
          + " ".join(f"{w:.3f}" for w in raw["raw_walls"]))
    shown = dict(metrics)
    if not args.trace:
        shown.update((k, v) for k, v in quality(raw).items()
                     if k in raw["quality"] or k == "error_rate")
    for name, m in shown.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for err in raw["errors"]:
        print(f"  failure: {err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the harness smoke test")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tagtrack" / "__init__.py").is_file():
        print(f"error: no tagtrack sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        setup = [] if args.trace else setup_seconds(root)
        raw = run_worker(root, args, root / WORK_DIR / args.workload)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    metrics = per_layer(raw) if args.trace else end_to_end(raw, setup)
    describe(args, raw, metrics)
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
