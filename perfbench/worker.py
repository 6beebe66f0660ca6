"""Child process of run.py: runs one workload and prints its raw results.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SIZE WORKDIR

Repeats the workload until SECONDS have passed (at least MIN_REPEATS
times), checks every repeat's outputs, and prints one JSON line: per-repeat
wall times, operation counts, quality metrics, peak RSS and, when TRACE is
1, per-layer metrics of the traced repeats.  Traced and untraced repeats
alternate in a traced run, which gives the tracing overhead.  Each wall
time has the steal time of the CPU the process is pinned to subtracted
(see machine.py).

Every repeat writes into the same output directory, WORKDIR/out, as a user
rerunning into one ``--out`` does, and WORKDIR is kept between runs.  On
ext4 mounted with ``discard``, deleting thousands of files makes file
creation several times slower and much more variable for tens of seconds
afterwards, in this run and the next; overwriting files does not.  After
the first repeat, files it did not write (left by a run with another seed
or size) are removed, and the output checks make sure no file of an
earlier repeat is passed off as output.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tagtrack  # noqa: E402
from machine import cpu_model, fs_type, pinned_cpu, stolen_s  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, remove_older  # noqa: E402

MIN_REPEATS = 3          # untraced run
MIN_TRACED_PAIRS = 2     # traced run: untraced + traced repeats
MIN_SPAN_COVERAGE = 0.95  # share of a traced repeat that layer self times must cover


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, size, work = argv
    seed, seconds, trace, work = int(seed), float(seconds), trace == "1", Path(work)
    if not Path(tagtrack.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported tagtrack from {tagtrack.__file__}, not from {ROOT}/src")
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, size, work)
    workload.setup()
    tracer = Tracer() if trace else None
    cpu = pinned_cpu()
    walls: dict[bool, list[float]] = {False: [], True: []}  # steal time subtracted
    raw_walls: list[float] = []
    layers: list[dict] = []
    quality: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    rep = 0
    while True:
        traced = trace and rep % 2 == 1
        out = work / "out"
        if traced:
            tracer.install()
            tracer.reset()
        started_ns = time.time_ns()
        stolen0 = stolen_s(cpu)
        t0 = time.perf_counter()
        ops = workload.run(out)
        wall = time.perf_counter() - t0
        stolen = stolen_s(cpu) - stolen0
        raw_walls.append(wall)
        wall -= stolen
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        if rep == 0:
            remove_older(out, started_ns)
        quality.append(workload.check(out, ops, started_ns))
        if traced:
            layer = tracer.layer_metrics()
            problems = tracer.check_static_coverage() + workload.trace_check(out, layer)
            covered = sum(tracer.self_s.values()) / (raw_walls[-1] - tracer.hook_s)
            if covered < MIN_SPAN_COVERAGE:
                problems.append(f"layer spans cover {covered:.1%} of the traced repeat")
            if problems:
                ops.fail("trace coverage", "; ".join(problems))
            layers.append(layer)
        attempted += ops.attempted
        failed += ops.failed
        errors += ops.errors
        rep += 1
        done = time.perf_counter() - start >= seconds
        if trace:
            done = done and len(walls[True]) >= MIN_TRACED_PAIRS
        else:
            done = done and rep >= MIN_REPEATS
        if done:
            break
    result = {
        "walls": walls[False],
        "traced_walls": walls[True],
        "raw_walls": raw_walls,
        "tag_windows": workload.tag_windows,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "quality": {k: statistics.median(q[k] for q in quality if k in q)
                    for k in sorted({k for q in quality for k in q})},
        "layers": {k: statistics.median(layer[k] for layer in layers)
                   for k in (layers[0] if layers else {})},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"fs_type": fs_type(work), "cpu": cpu_model(), "pinned_cpu": cpu,
                "python": platform.python_version(), "numpy": np.__version__},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
