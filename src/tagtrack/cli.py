"""Command-line pipeline: simulate / estimate / track / featurize / classify / eval / demo.

Every artifact embeds the effective config hash and seed, and contains no
wall-clock state, so re-running a subcommand with the same config and seed
reproduces it byte for byte.  Angles in artifacts are degrees; the library
API is radians.
"""

from __future__ import annotations

import argparse
import csv
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from .classify import evaluate
from .config import (ConfigError, config_hash, dataset_spec_from, geometry_from, kalman_from,
                     load_config, music_search_from, schedule_from)
from .features import FEATURE_CONFIGS, SampleFeatureError, featurize_dataset
from .music import spectrum_peaks
from .pipeline import (dtw_experiment, gesture_dataset, knn_feature_experiment,
                       synthesize_fixed_log, tracked_sample, truth_on_track)
from .preprocess import windows_by_tag
from .readerlog import (_csv_table, _fmt, _json_text, _load_json, _meta_line, _sample_entries,
                        read_reader_log, write_reader_log)
from .simulate import GestureSample
from .tracking import measure_windows, track_aoa


def _meta(cfg: dict) -> dict:
    return {"config_hash": config_hash(cfg), "seed": cfg["seed"]}


def _write_json(path: Path, payload: dict):
    "Write payload as JSON, creating the directory: a command makes --out only once it writes."
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(payload) + "\n")


def _write_csv(path: Path, cfg: dict, header: list[str], rows):
    "Write header and rows under the config hash line, creating the directory as _write_json does."
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(_meta_line(_meta(cfg)))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _input_file(in_path: Path, name: str) -> Path:
    "The ``--in`` path, or its file ``name`` when it is a directory (``read_reader_log``'s rule)."
    return in_path / name if in_path.is_dir() else in_path


# --- simulate ----------------------------------------------------------------

def cmd_simulate(cfg: dict, out: Path) -> int:
    geo, sched, spec = geometry_from(cfg), schedule_from(cfg), dataset_spec_from(cfg)
    s = cfg["scene"]
    if s["mode"] == "fixed":
        angles = {tag: math.radians(deg) for tag, deg in s["fixed_tags_deg"].items()}
        log = synthesize_fixed_log(geo, sched, spec, angles, cfg["seed"])
        log.meta = _meta(cfg)
        write_reader_log(log, out)
        print(f"wrote fixed-tag reader log: {out / 'readerlog.csv'}")
        return 0
    manifest = {"samples": [], **_meta(cfg)}
    made = [d for d in (out, out / "samples") if not d.exists()]
    # an earlier run's manifest would name the logs this run overwrites
    (out / "manifest.json").unlink(missing_ok=True)
    try:
        for n, (label, log) in enumerate(gesture_dataset(geo, sched, spec, cfg["seed"])):
            log.meta = _meta(cfg)
            manifest["samples"].append({"id": f"g{n:04d}", "label": label,
                                        "dir": f"samples/g{n:04d}"})
            write_reader_log(log, out / "samples" / f"g{n:04d}")
    except BaseException:
        # a failed run leaves no partial dataset: its sample directories go, and so
        # do the directories it made once they are empty
        for entry in manifest["samples"]:
            shutil.rmtree(out / entry["dir"], ignore_errors=True)
        for d in reversed(made):
            if d.exists() and not any(d.iterdir()):
                d.rmdir()
        raise
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {len(manifest['samples'])} gesture logs under {out}")
    return 0


# --- estimate ----------------------------------------------------------------

def _write_measurements(path: Path, cfg: dict, measurements: dict) -> int:
    flat = [(tag, m) for tag, tag_meas in measurements.items() for m in tag_meas]
    thetas = _fmt(math.degrees(m.theta_hat) for _, m in flat)
    peaks = _fmt(spectrum_peaks([m for _, m in flat], geometry_from(cfg)).tolist())
    rows = [[tag, m.window_idx, theta, peak, "true"]
            for (tag, m), theta, peak in zip(flat, thetas, peaks)]
    _write_csv(path, cfg, ["tag_id", "window_idx", "theta_deg", "peak", "valid"], rows)
    return len(rows)


def cmd_estimate(cfg: dict, in_path: Path, out: Path) -> int:
    windows = windows_by_tag(read_reader_log(in_path))
    measurements = measure_windows(windows, geometry_from(cfg), schedule_from(cfg),
                                   music_search_from(cfg))
    n = _write_measurements(out / "measurements.csv", cfg, measurements)
    print(f"wrote {out / 'measurements.csv'} ({n} measurements)")
    return 0


# --- track -------------------------------------------------------------------

def _cov_traces(covs: np.ndarray) -> np.ndarray:
    """Trace of each 2x2 covariance of a (T, 2, 2) stack, in one call.

    np.trace sums from +0.0, so a (-0.0, -0.0) diagonal has trace +0.0, not
    the -0.0 of ``covs[:, 0, 0] + covs[:, 1, 1]``.
    """
    return np.trace(covs, axis1=1, axis2=2)


def _track_one(cfg: dict, log_dir: Path, out: Path) -> dict:
    log = read_reader_log(log_dir)
    tracks = track_aoa(log, geometry_from(cfg), music_search=music_search_from(cfg),
                       kalman=kalman_from(cfg), schedule=schedule_from(cfg))
    payload: dict = {**_meta(cfg), "tags": {}}
    deg = math.degrees
    for tag, tr in sorted(tracks.items()):
        payload["tags"][tag] = {
            "dt_s": tr.dt,
            "missing": (~tr.valid).tolist(),
            "raw_deg": [round(deg(v), 6) if math.isfinite(v) else None for v in tr.z.tolist()],
            "filtered_deg": [round(deg(v), 6) for v in tr.filtered_series().tolist()],
            "smoothed_deg": [round(deg(v), 6) for v in tr.smoothed_series().tolist()],
            "cov_trace": [round(v, 9) for v in _cov_traces(tr.post_covs).tolist()],
            "smoothed_cov_trace": [round(v, 9) for v in _cov_traces(tr.smoothed_covs).tolist()],
            "midpoint_s": [round(v, 9) for v in tr.midpoint_s.tolist()],
        }
    _write_json(out / "tracks.json", payload)
    # plot-ready per-tag CSV: window, truth, raw, filtered, smoothed (degrees)
    for tag, tr in sorted(tracks.items()):
        truth = [math.nan] * tr.n_windows
        if log.truth and tag in log.truth:
            truth = truth_on_track(tr, log.truth[tag], log.first_window).tolist()
        columns = [_fmt(map(deg, values))
                   for values in (truth, tr.z.tolist(), tr.filtered_series().tolist(),
                                  tr.smoothed_series().tolist())]
        _write_csv(out / f"track_plot_{tag}.csv", cfg,
                   ["window", "truth", "raw", "filtered", "smoothed"],
                   zip(range(tr.n_windows), *columns))
    return payload


def _series_entry(entry: dict, sample: GestureSample) -> dict:
    channels = {f"{tag}:{kind}": [None if not np.isfinite(v) else round(float(v), 9)
                                  for v in getattr(sample, kind)[tag]]
                for tag in sample.tag_ids for kind in ("rss", "phase", "aoa")}
    return {"id": entry["id"], "label": entry["label"], "n_windows": sample.n_windows,
            "dt_s": sample.dt_s, "channels": channels}


def _manifest_samples(path: Path) -> list[dict]:
    """The sample entries of a dataset ``manifest.json``.

    Invalid JSON, no ``samples`` list, an empty one, or an entry without an
    ``id``, ``dir`` and ``label`` string raises ValueError naming the file
    (and the entry).
    """
    entries = []
    for i, entry in _sample_entries(path):
        for key in ("id", "dir", "label"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"{path} sample #{i}: no {key!r} string")
        entries.append(entry)
    return entries


def cmd_track(cfg: dict, in_path: Path, out: Path) -> int:
    manifest_path = in_path / "manifest.json"
    if not manifest_path.exists():
        _track_one(cfg, in_path, out)
        print(f"wrote {out / 'tracks.json'}")
        return 0
    geo, sched = geometry_from(cfg), schedule_from(cfg)
    series = {"samples": [], **_meta(cfg)}
    for entry in _manifest_samples(manifest_path):
        log_dir = in_path / entry["dir"]
        log = read_reader_log(log_dir)
        if not len(log):
            raise ValueError(f"{log_dir / 'readerlog.csv'} has no read rows")
        sample = tracked_sample(log, entry["label"], geo, sched, kalman=kalman_from(cfg),
                                music_search=music_search_from(cfg))
        series["samples"].append(_series_entry(entry, sample))
    _write_json(out / "series.json", series)
    print(f"wrote {out / 'series.json'} ({len(series['samples'])} samples)")
    return 0


# --- featurize ----------------------------------------------------------------

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _series_samples(path: Path) -> tuple[list[str], list[GestureSample]]:
    """The sample ids and samples of a track ``series.json``.

    No sample, a sample that lacks a key, or a channel that is not
    ``n_windows`` numbers or nulls raises ValueError naming the file and sample.
    """
    ids, out = [], []
    for i, entry in _sample_entries(path):
        where = f"{path} sample {entry.get('id', f'#{i}')}"
        for key in ("id", "label", "n_windows", "dt_s", "channels"):
            if key not in entry:
                raise ValueError(f"{where}: no {key!r}")
        if not isinstance(entry["channels"], dict):
            raise ValueError(f"{where}: channels is not an object")
        n = entry["n_windows"]
        if not (isinstance(n, int) and not isinstance(n, bool) and n > 0):
            raise ValueError(f"{where}: n_windows {n!r} is not a positive integer")
        if not _is_number(entry["dt_s"]):
            raise ValueError(f"{where}: dt_s {entry['dt_s']!r} is not a number")
        chans = {}
        for key, vals in entry["channels"].items():
            if not isinstance(vals, list):
                raise ValueError(f"{where}: channel {key!r} is not a list")
            if len(vals) != n:
                raise ValueError(f"{where}: channel {key!r} has {len(vals)} values, "
                                 f"n_windows is {n}")
            bad = next((v for v in vals if v is not None and not _is_number(v)), None)
            if bad is not None:
                raise ValueError(f"{where}: channel {key!r} holds {bad!r}, not a number")
            chans[key] = np.array([np.nan if v is None else v for v in vals], dtype=float)
        tags = sorted({key.split(":")[0] for key in chans})
        kinds = {kind: {t: chans[f"{t}:{kind}"] for t in tags if f"{t}:{kind}" in chans}
                 for kind in ("rss", "phase", "aoa")}
        ids.append(entry["id"])
        out.append(GestureSample(label=entry["label"], tag_ids=tags, **kinds,
                                 n_windows=n, dt_s=entry["dt_s"]))
    return ids, out


def cmd_featurize(cfg: dict, in_path: Path, out: Path) -> int:
    series_path = _input_file(in_path, "series.json")
    if not series_path.exists():
        raise FileNotFoundError(f"{series_path} not found; run `track` on the dataset first")
    ids, samples = _series_samples(series_path)
    config_name = cfg["features"]["config"]
    try:
        x, layout, labels = featurize_dataset(samples, FEATURE_CONFIGS[config_name])
    except SampleFeatureError as e:
        raise ValueError(f"{series_path} sample {ids[e.index]}: {e}") from None
    _write_csv(out / "features.csv", cfg, [*layout, "label"],
               ([*(repr(float(v)) for v in row), label] for row, label in zip(x, labels)))
    _write_json(out / "layout.json",
                {**_meta(cfg), "config": config_name, "layout": list(layout)})
    print(f"wrote {out / 'features.csv'} ({x.shape[0]} x {x.shape[1]})")
    return 0


# --- classify / eval -----------------------------------------------------------

def _read_features_csv(path: Path):
    """Feature matrix, layout and labels of a ``features.csv``.

    No data row, a row whose field count differs from the header's, or a
    non-numeric feature raises ValueError naming the file and row (the
    header is row 1; comment lines are not counted).
    """
    header, rows = _csv_table(path)
    if not header:
        raise ValueError(f"{path} has no header row")
    labels, data = [], []
    for lineno, row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path} row {lineno}: has {len(row)} fields, "
                             f"expected {len(header)}")
        values = []
        for name, v in zip(header, row[:-1]):
            try:
                values.append(float(v))
            except ValueError:
                raise ValueError(f"{path} row {lineno}: {name} {v!r} is not a number") from None
        data.append(values)
        labels.append(row[-1])
    if not data:
        raise ValueError(f"{path} has no feature rows")
    return np.array(data), header[:-1], labels


def _write_report(out: Path, cfg: dict, report, extra: dict):
    payload = {**_meta(cfg), **extra, "metrics": report.as_dict()}
    _write_json(out / "report.json", payload)
    _write_csv(out / "confusion.csv", cfg, ["true\\pred", *report.classes],
               ([cls, *(repr(round(float(v), 9)) for v in row)]
                for cls, row in zip(report.classes, report.confusion)))


def _check_test_split(path: Path, labels: list[str]):
    "Fail naming the file when no class has two rows: the stratified test split would be empty."
    if len(set(labels)) == len(labels):
        raise ValueError(f"{path} has no class with two rows, so the test split is empty")


def cmd_classify(cfg: dict, in_path: Path, out: Path) -> int:
    c = cfg["classify"]
    split_seed = cfg["seed"] if c["split_seed"] is None else c["split_seed"]
    if c["method"] == "knn":
        feats = _input_file(in_path, "features.csv")
        x, _, labels = _read_features_csv(feats)
        _check_test_split(feats, labels)
        report = knn_feature_experiment(x, labels, split_seed=split_seed, k=c["k"],
                                        test_frac=c["test_frac"])
        extra = {"method": "knn", "k": c["k"],
                 "feature_config": cfg["features"]["config"], "split_seed": split_seed}
    else:
        series_path = _input_file(in_path, "series.json")
        ids, samples = _series_samples(series_path)
        _check_test_split(series_path, [s.label for s in samples])
        try:
            report = dtw_experiment(samples, c["channel"], split_seed=split_seed,
                                    test_frac=c["test_frac"])
        except SampleFeatureError as e:
            raise ValueError(f"{series_path} sample {ids[e.index]}: {e}") from None
        extra = {"method": "dtw", "channel": c["channel"], "split_seed": split_seed}
    _write_report(out, cfg, report, extra)
    print(f"accuracy {report.accuracy:.2f}% -> {out / 'report.json'}")
    return 0


def cmd_eval(cfg: dict, in_path: Path, out: Path) -> int:
    """Metrics from a predictions CSV with columns pred,truth.

    A row with fewer than two fields raises ValueError naming the file and
    row (the header is row 1; comment lines are not counted).
    """
    header, rows = _csv_table(in_path)
    if not header or header[:2] != ["pred", "truth"]:
        raise ConfigError(f"{in_path}: expected columns pred,truth")
    preds, truths = [], []
    for lineno, row in rows:
        if len(row) < 2:
            raise ValueError(f"{in_path} row {lineno}: has {len(row)} field, expected pred,truth")
        preds.append(row[0])
        truths.append(row[1])
    if not preds:
        raise ValueError(f"{in_path} has no prediction rows")
    classes = tuple(sorted(set(preds) | set(truths)))
    report = evaluate(preds, truths, classes)
    _write_report(out, cfg, report, {"method": "eval"})
    print(f"accuracy {report.accuracy:.2f}% -> {out / 'report.json'}")
    return 0


# --- demo ----------------------------------------------------------------------

def cmd_demo(cfg: dict, out: Path) -> int:
    """simulate -> track -> featurize -> classify, feature configs SPR and SPRA."""
    data_dir = out / "dataset"
    cmd_simulate(cfg, data_dir)
    cmd_track(cfg, data_dir, out / "tracks")
    accuracies = {}
    reports = {}
    for name in ("SPR", "SPRA"):
        sub = dict(cfg, features={"config": name})
        cmd_featurize(sub, out / "tracks", out / f"features_{name}")
        feat_csv = out / f"features_{name}" / "features.csv"
        rep_dir = out / f"report_{name}"
        cmd_classify(sub, feat_csv, rep_dir)
        payload = _load_json(rep_dir / "report.json")
        accuracies[name] = payload["metrics"]["accuracy"]
        reports[name] = payload
    payload = {**_meta(cfg),
               "accuracy_SPR": accuracies["SPR"],
               "accuracy_SPRA": accuracies["SPRA"],
               "aoa_gain_points": round(accuracies["SPRA"] - accuracies["SPR"], 6),
               "reports": reports}
    _write_json(out / "report.json", payload)
    print(f"demo: SPR {accuracies['SPR']:.2f}% vs SPRA {accuracies['SPRA']:.2f}% "
          f"-> {out / 'report.json'}")
    return 0


# --- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagtrack",
        description="AoA estimation/tracking pipeline for two-antenna RFID readers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_in in [("simulate", False), ("estimate", True), ("track", True),
                           ("featurize", True), ("classify", True), ("eval", True),
                           ("demo", False)]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override")
        if needs_in:
            p.add_argument("--in", dest="in_path", type=Path, required=True,
                           help="input artifact (reader log, dataset, features, ...)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "estimate":
            return cmd_estimate(cfg, args.in_path, args.out)
        if args.command == "track":
            return cmd_track(cfg, args.in_path, args.out)
        if args.command == "featurize":
            return cmd_featurize(cfg, args.in_path, args.out)
        if args.command == "classify":
            return cmd_classify(cfg, args.in_path, args.out)
        if args.command == "eval":
            return cmd_eval(cfg, args.in_path, args.out)
        if args.command == "demo":
            return cmd_demo(cfg, args.out)
    except (ConfigError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
