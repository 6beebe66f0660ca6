"""The three benchmark workloads and the checks on their outputs.

Each workload gets the benchmark seed and builds every program input from
it.  ``run`` is the timed region of one repeat; ``check`` reads the outputs
afterwards, untimed, and turns wrong outputs into failed operations.
Digests are compared only between repeats of one run, never against stored
values, so a change of artifact layout still passes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from pathlib import Path

# Calls go through the module attributes, which the tracer rebinds.
from tagtrack import cli, config, pipeline
from tagtrack.simulate import GESTURE_CLASSES
from tracer import MTIME_SLACK_NS

TAGS = 2
GESTURE_WINDOWS = 24
MIN_GAIN_PTS = 10.0    # the criterion-08 thresholds on knn_gain_pts and dtw_gain_pts

SIZES = {  # samples per class for demo and gestures, log windows for import_track
    "full": {"demo": 8, "gestures": 40, "import_track": 2000},
    "tiny": {"demo": 2, "gestures": 2, "import_track": 40},
}


class Ops:
    """Attempted and failed operations of one repeat."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.results: dict = {}

    def call(self, label: str, fn, *args, **kwargs):
        "Run one library operation; an exception counts as a failure and returns None."
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # every exception of the program is a failed operation
            self.fail(label, f"{type(e).__name__}: {e}")
            return None

    def cli(self, argv: list[str]) -> bool:
        "Run one CLI subcommand with its stdout discarded; True when it exits 0."
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.call(argv[0], cli.main, argv)
        if code not in (None, 0):
            self.fail(argv[0], f"exit code {code}")
        return code == 0

    def fail(self, label: str, message: str):
        self.failed += 1
        self.errors.append(f"{label}: {message}")




def tree_stats(root: Path, written_since_ns: int, ops: Ops, label: str):
    """Digest of relative paths and contents under root, file count, content bytes.

    A file older than the repeat is left over from an earlier one, which
    counts as a failed output check.
    """
    h = hashlib.sha256()
    files = nbytes = stale = 0
    for dirpath, dirnames, names in os.walk(root):
        dirnames.sort()
        for name in sorted(names):
            path = Path(dirpath) / name
            stale += path.stat().st_mtime_ns < written_since_ns - MTIME_SLACK_NS
            data = path.read_bytes()
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
            files += 1
            nbytes += len(data)
    if stale:
        ops.fail(label, f"{stale} files under {root.name} were not written by this repeat")
    return h.hexdigest(), files, nbytes


def remove_older(root: Path, written_since_ns: int):
    "Delete the files under root older than written_since_ns, then empty directories."
    for dirpath, _, names in os.walk(root, topdown=False):
        for name in names:
            path = Path(dirpath) / name
            if path.stat().st_mtime_ns < written_since_ns - MTIME_SLACK_NS:
                path.unlink()
        if dirpath != str(root) and not os.listdir(dirpath):
            os.rmdir(dirpath)


def count_files(root: Path) -> int:
    return sum(len(names) for _, _, names in os.walk(root))


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.n = SIZES[size][self.name]
        self.work = work
        self.first_digest: str | None = None

    def setup(self):
        "Untimed input generation."

    def run(self, out: Path) -> Ops:
        raise NotImplementedError

    def check(self, out: Path, ops: Ops, started_ns: int) -> dict[str, float]:
        "Check the repeat's outputs; returns the workload's quality metrics."
        raise NotImplementedError

    def trace_check(self, out: Path, layer: dict[str, float]) -> list[str]:
        "Reconcile traced counts with the workload size; returns mismatches."
        problems = []
        if layer["music.calls"] != layer["preprocess.windows_out"]:
            problems.append(f"music.calls {layer['music.calls']} != windows out of "
                            f"window_segments {layer['preprocess.windows_out']}")
        if layer["music.calls"] == 0:
            problems.append("no window was estimated")
        return problems

    def same_as_first(self, digest: str, ops: Ops, label: str):
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            ops.fail(label, "artifacts differ from the first repeat of this run")


class GestureWorkload(Workload):
    "A labeled dataset of n samples per gesture class, 24 windows each."

    @property
    def samples(self) -> int:
        return len(GESTURE_CLASSES) * self.n

    @property
    def tag_windows(self) -> int:
        return self.samples * TAGS * GESTURE_WINDOWS

    def trace_check(self, out: Path, layer: dict[str, float]) -> list[str]:
        problems = super().trace_check(out, layer)
        want = self.samples * GESTURE_WINDOWS
        if layer["simulate.calls"] != want:
            problems.append(f"simulate.calls {layer['simulate.calls']} != samples x windows "
                            f"{want}")
        return problems


class Demo(GestureWorkload):
    """``tagtrack demo``: simulate -> track -> featurize -> classify through the CLI."""

    name = "demo"

    def argv(self, out: Path) -> list[str]:
        return ["demo", "--seed", str(self.seed), "--out", str(out),
                "--set", f"scene.samples_per_class={self.n}"]

    def run(self, out: Path) -> Ops:
        ops = Ops()
        ops.cli(self.argv(out))
        return ops

    def check(self, out: Path, ops: Ops, started_ns: int) -> dict[str, float]:
        if ops.failed:
            return {}
        report = json.loads((out / "report.json").read_text())
        spra, spr = report["accuracy_SPRA"], report["accuracy_SPR"]
        if not spra > spr:
            ops.fail("demo", f"SPRA accuracy {spra} is not above SPR accuracy {spr}")
        digest, files, nbytes = tree_stats(out, started_ns, ops, "demo")
        self.same_as_first(digest, ops, "demo")
        return {"accuracy_SPRA_pct": spra, "knn_gain_pts": spra - spr,
                "artifact_files": files, "artifact_mb": nbytes / 1e6}

    def trace_check(self, out: Path, layer: dict[str, float]) -> list[str]:
        problems = super().trace_check(out, layer)
        on_disk = count_files(out / "dataset" / "samples")
        if layer["readerlog.files_written"] != on_disk:
            problems.append(f"readerlog.files_written {layer['readerlog.files_written']} != "
                            f"{on_disk} reader-log files on disk")
        if layer["readerlog.files_read"] != on_disk:
            problems.append(f"readerlog.files_read {layer['readerlog.files_read']} != "
                            f"{on_disk} reader-log files on disk")
        return problems


class Gestures(GestureWorkload):
    """The criterion-08 experiment in memory: dataset, k-NN SPRA/SPR, DTW aoa/phase.

    Benchmark seed i uses dataset seed 100 + i and split seed i, so seeds
    0 to 4 are the five datasets of the criterion-08 acceptance test.
    """

    name = "gestures"

    def run(self, out: Path) -> Ops:
        ops = Ops()
        cfg = config.load_config(seed=self.seed)
        spec = pipeline.DatasetSpec(samples_per_class=self.n, windows=GESTURE_WINDOWS)
        samples = ops.call("synthesize_dataset", pipeline.synthesize_dataset,
                           config.geometry_from(cfg), config.schedule_from(cfg), spec,
                           seed=100 + self.seed)
        if samples is None:
            return ops
        for name in ("SPRA", "SPR"):
            ops.results[name] = ops.call(f"knn_experiment {name}", pipeline.knn_experiment,
                                         samples, name, split_seed=self.seed)
        for channel in ("aoa", "phase"):
            ops.results[channel] = ops.call(f"dtw_experiment {channel}",
                                            pipeline.dtw_experiment, samples, channel,
                                            split_seed=self.seed)
        return ops

    def check(self, out: Path, ops: Ops, started_ns: int) -> dict[str, float]:
        reports = ops.results
        if len(reports) != 4 or any(r is None for r in reports.values()):
            return {}
        acc = {k: r.accuracy for k, r in reports.items()}
        quality = {"accuracy_SPRA_pct": acc["SPRA"], "knn_gain_pts": acc["SPRA"] - acc["SPR"],
                   "dtw_gain_pts": acc["aoa"] - acc["phase"]}
        for metric in ("knn_gain_pts", "dtw_gain_pts"):
            if quality[metric] < MIN_GAIN_PTS:
                ops.fail("gestures", f"{metric} {quality[metric]:.1f} < {MIN_GAIN_PTS}")
        return quality

    def trace_check(self, out: Path, layer: dict[str, float]) -> list[str]:
        problems = super().trace_check(out, layer)
        if layer["readerlog.files_written"] or layer["readerlog.files_read"]:
            problems.append("gestures touched reader-log files")
        return problems


class ImportTrack(Workload):
    """``tagtrack estimate`` then ``tagtrack track`` on a long fixed-tag lab log.

    The log (two tags, multipath and misdetections on) is written in set-up.
    """

    name = "import_track"

    @property
    def tag_windows(self) -> int:
        return TAGS * self.n

    @property
    def log_dir(self) -> Path:
        return self.work / "log"

    def overrides(self) -> list[str]:
        return ["--set", "scene.mode=fixed", "--set", f"scene.windows={self.n}"]

    def setup(self):
        ops = Ops()
        started_ns = time.time_ns()
        if not ops.cli(["simulate", "--seed", str(self.seed), "--out", str(self.log_dir),
                        *self.overrides()]):
            raise RuntimeError(f"could not write the input log: {ops.errors}")
        remove_older(self.log_dir, started_ns)
        self.log_tags = sorted(json.loads((self.log_dir / "truth.json").read_text()))

    def run(self, out: Path) -> Ops:
        ops = Ops()
        for cmd in ("estimate", "track"):
            ops.cli([cmd, "--seed", str(self.seed), "--in", str(self.log_dir),
                     "--out", str(out / cmd), *self.overrides()])
        return ops

    def check(self, out: Path, ops: Ops, started_ns: int) -> dict[str, float]:
        if ops.failed:
            return {}
        tracked = sorted(json.loads((out / "track" / "tracks.json").read_text())["tags"])
        if tracked != self.log_tags:
            ops.fail("track", f"tracked tags {tracked}, log has {self.log_tags}")
        digest, files, nbytes = tree_stats(out, started_ns, ops, "import_track")
        self.same_as_first(digest, ops, "import_track")
        sq, n = 0.0, 0
        for tag in tracked:
            with open(out / "track" / f"track_plot_{tag}.csv", newline="") as fh:
                for row in csv.DictReader(ln for ln in fh if not ln.startswith("#")):
                    if row["truth"]:
                        sq += (float(row["smoothed"]) - float(row["truth"])) ** 2
                        n += 1
        quality = {"artifact_files": files, "artifact_mb": nbytes / 1e6}
        if n:
            quality["track_rmse_deg"] = math.sqrt(sq / n)
        else:
            ops.fail("track", "no tracked window has a ground-truth angle")
        return quality

    def trace_check(self, out: Path, layer: dict[str, float]) -> list[str]:
        problems = super().trace_check(out, layer)
        if layer["simulate.calls"]:
            problems.append("simulate ran inside the timed region")
        with open(out / "estimate" / "measurements.csv") as fh:
            rows = sum(1 for ln in fh if not ln.startswith("#")) - 1
        # estimate and track each window the same log once
        if layer["preprocess.windows_out"] != 2 * rows:
            problems.append(f"preprocess.windows_out {layer['preprocess.windows_out']} != "
                            f"2 x {rows} measurement rows")
        on_disk = count_files(self.log_dir)
        if layer["readerlog.files_read"] != 2 * on_disk:
            problems.append(f"readerlog.files_read {layer['readerlog.files_read']} != "
                            f"2 x {on_disk} log files on disk")
        return problems


WORKLOADS = {w.name: w for w in (Demo, Gestures, ImportTrack)}
