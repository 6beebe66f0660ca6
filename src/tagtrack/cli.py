"""Command-line pipeline: simulate / estimate / track / featurize / classify / eval / demo.

Every artifact embeds the effective config hash and seed, and contains no
wall-clock state, so re-running a subcommand with the same config and seed
reproduces it byte for byte.  Angles in artifacts are degrees; the library
API is radians.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .classify import evaluate
from .config import (ConfigError, config_hash, geometry_from, kalman_from,
                     load_config, music_search_from, schedule_from)
from .features import FEATURE_CONFIGS, featurize_dataset
from .pipeline import (DatasetSpec, attach_tracks, dtw_experiment, gesture_dataset,
                       knn_feature_experiment, synthesize_fixed_log, truth_on_track)
from .preprocess import read_windows, windows_by_tag, write_windows
from .readerlog import read_reader_log, write_reader_log
from .simulate import GestureSample, gesture_sample
from .tracking import measure_windows, track_aoa


def _fmt(x: float) -> str:
    return "" if x is None or (isinstance(x, float) and math.isnan(x)) else repr(float(x))


def _meta(cfg: dict) -> dict:
    return {"config_hash": config_hash(cfg), "seed": cfg["seed"]}


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _dataset_spec(cfg: dict) -> DatasetSpec:
    s = cfg["scene"]
    p = s["misdetect_prob"]
    return DatasetSpec(classes=tuple(s["classes"]),
                       samples_per_class=s["samples_per_class"], windows=s["windows"],
                       snr_db=s["snr_db"], misdetect_prob=p if np.isscalar(p) else tuple(p),
                       nlos_paths=s["nlos_paths"], nlos_gain_db=s["nlos_gain_db"],
                       angle_gain_db=s["angle_gain_db"], angle_phase_rad=s["angle_phase_rad"],
                       tx_power=s["tx_power"], modulation_gain=s["modulation_gain"])


# --- simulate ----------------------------------------------------------------

def cmd_simulate(cfg: dict, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    geo, sched, spec = geometry_from(cfg), schedule_from(cfg), _dataset_spec(cfg)
    s = cfg["scene"]
    if s["mode"] == "fixed":
        angles = {tag: math.radians(deg) for tag, deg in s["fixed_tags_deg"].items()}
        log = synthesize_fixed_log(geo, sched, spec, angles, cfg["seed"])
        log.meta = _meta(cfg)
        write_reader_log(log, out)
        print(f"wrote fixed-tag reader log: {out / 'readerlog.csv'}")
        return 0
    manifest = {"samples": [], **_meta(cfg)}
    for n, (sample, log) in enumerate(gesture_dataset(geo, sched, spec, cfg["seed"])):
        log.meta = _meta(cfg)
        write_reader_log(log, out / "samples" / f"g{n:04d}")
        manifest["samples"].append({"id": f"g{n:04d}", "label": sample.label,
                                    "dir": f"samples/g{n:04d}"})
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {len(manifest['samples'])} gesture logs under {out}")
    return 0


# --- estimate ----------------------------------------------------------------

def _write_measurements(path: Path, cfg: dict, measurements: dict) -> int:
    rows = [[tag, m.window_idx,
             _fmt(math.degrees(m.theta_hat)) if m.valid else "",
             _fmt(m.spectrum_peak) if m.valid else "",
             "true" if m.valid else "false"]
            for tag, tag_meas in measurements.items() for m in tag_meas]
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)},seed={cfg['seed']}\n")
        writer = csv.writer(fh)
        writer.writerow(["tag_id", "window_idx", "theta_deg", "peak", "valid"])
        writer.writerows(rows)
    return len(rows)


def cmd_estimate(cfg: dict, in_path: Path, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if in_path.is_dir() and (in_path / "windows.json").exists() or in_path.name == "windows.json":
        windows = read_windows(in_path)
    else:
        windows = windows_by_tag(read_reader_log(in_path))
        write_windows(windows, out / "windows", meta=_meta(cfg))
    measurements = measure_windows(windows, geometry_from(cfg), schedule_from(cfg),
                                   music_search_from(cfg))
    n = _write_measurements(out / "measurements.csv", cfg, measurements)
    print(f"wrote {out / 'measurements.csv'} ({n} measurements)")
    return 0


# --- track -------------------------------------------------------------------

def _track_one(cfg: dict, log_dir: Path, out: Path) -> dict:
    log = read_reader_log(log_dir)
    tracks = track_aoa(log, geometry_from(cfg), music_search=music_search_from(cfg),
                       kalman=kalman_from(cfg), schedule=schedule_from(cfg))
    payload: dict = {**_meta(cfg), "tags": {}}
    deg = math.degrees
    for tag, tr in sorted(tracks.items()):
        payload["tags"][tag] = {
            "dt_s": tr.dt,
            "missing": [bool(not v) for v in tr.valid],
            "raw_deg": [None if not np.isfinite(z) else round(deg(z), 6) for z in tr.z],
            "filtered_deg": [round(deg(v), 6) for v in tr.filtered_series()],
            "smoothed_deg": [round(deg(v), 6) for v in tr.smoothed_series()],
            "cov_trace": [round(float(np.trace(p)), 9) for p in tr.post_covs],
            "smoothed_cov_trace": [round(float(np.trace(p)), 9) for p in tr.smoothed_covs],
            "midpoint_s": [round(float(m), 9) for m in tr.midpoint_s],
        }
    _write_json(out / "tracks.json", payload)
    # plot-ready per-tag CSV: window, truth, raw, filtered, smoothed (degrees)
    for tag, tr in sorted(tracks.items()):
        truth = np.full(tr.n_windows, np.nan)
        if log.truth and tag in log.truth:
            truth = truth_on_track(tr, log.truth[tag], log.first_window)
        with open(out / f"track_plot_{tag}.csv", "w", newline="") as fh:
            fh.write(f"# config_hash={config_hash(cfg)},seed={cfg['seed']}\n")
            writer = csv.writer(fh)
            writer.writerow(["window", "truth", "raw", "filtered", "smoothed"])
            writer.writerows([t, _fmt(deg(truth[t])), _fmt(deg(tr.z[t])),
                              _fmt(deg(tr.filtered_series()[t])),
                              _fmt(deg(tr.smoothed_series()[t]))]
                             for t in range(tr.n_windows))
    return payload


def _series_entry(entry: dict, sample: GestureSample) -> dict:
    channels = {f"{tag}:{kind}": [None if not np.isfinite(v) else round(float(v), 9)
                                  for v in getattr(sample, kind)[tag]]
                for tag in sample.tag_ids for kind in ("rss", "phase", "aoa")}
    return {"id": entry["id"], "label": entry["label"], "n_windows": sample.n_windows,
            "dt_s": sample.dt_s, "channels": channels}


def cmd_track(cfg: dict, in_path: Path, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = in_path / "manifest.json"
    if not manifest_path.exists():
        _track_one(cfg, in_path, out)
        print(f"wrote {out / 'tracks.json'}")
        return 0
    manifest = json.loads(manifest_path.read_text())
    geo, sched = geometry_from(cfg), schedule_from(cfg)
    series = {"samples": [], **_meta(cfg)}
    for entry in manifest["samples"]:
        log = read_reader_log(in_path / entry["dir"])
        sample = attach_tracks(gesture_sample(log, entry["label"], sched.window_duration_s),
                               log, geo, kalman=kalman_from(cfg), schedule=sched,
                               music_search=music_search_from(cfg))
        series["samples"].append(_series_entry(entry, sample))
    _write_json(out / "series.json", series)
    print(f"wrote {out / 'series.json'} ({len(series['samples'])} samples)")
    return 0


# --- featurize ----------------------------------------------------------------

def _samples_from_series(series: dict) -> list[GestureSample]:
    out = []
    for entry in series["samples"]:
        chans = {key: np.array([np.nan if v is None else v for v in vals], dtype=float)
                 for key, vals in entry["channels"].items()}
        tags = sorted({key.split(":")[0] for key in chans})
        kinds = {kind: {t: chans[f"{t}:{kind}"] for t in tags if f"{t}:{kind}" in chans}
                 for kind in ("rss", "phase", "aoa")}
        out.append(GestureSample(label=entry["label"], tag_ids=tags, truth={}, **kinds,
                                 n_windows=entry["n_windows"], dt_s=entry["dt_s"]))
    return out


def cmd_featurize(cfg: dict, in_path: Path, out: Path) -> int:
    series_path = in_path if in_path.name == "series.json" else in_path / "series.json"
    if not series_path.exists():
        raise FileNotFoundError(f"{series_path} not found; run `track` on the dataset first")
    samples = _samples_from_series(json.loads(series_path.read_text()))
    config_name = cfg["features"]["config"]
    x, layout, labels = featurize_dataset(samples, FEATURE_CONFIGS[config_name])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "features.csv", "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)},seed={cfg['seed']}\n")
        writer = csv.writer(fh)
        writer.writerow([*layout, "label"])
        for row, label in zip(x, labels):
            writer.writerow([*(repr(float(v)) for v in row), label])
    _write_json(out / "layout.json",
                {**_meta(cfg), "config": config_name, "layout": list(layout)})
    print(f"wrote {out / 'features.csv'} ({x.shape[0]} x {x.shape[1]})")
    return 0


# --- classify / eval -----------------------------------------------------------

def _read_features_csv(path: Path):
    with open(path, newline="") as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    labels, data = [], []
    for row in reader:
        if not row:
            continue
        data.append([float(v) for v in row[:-1]])
        labels.append(row[-1])
    return np.array(data), header[:-1], labels


def _write_report(out: Path, cfg: dict, report, extra: dict):
    payload = {**_meta(cfg), **extra, "metrics": report.as_dict()}
    _write_json(out / "report.json", payload)
    with open(out / "confusion.csv", "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)},seed={cfg['seed']}\n")
        writer = csv.writer(fh)
        writer.writerow(["true\\pred", *report.classes])
        for cls, row in zip(report.classes, report.confusion):
            writer.writerow([cls, *(repr(round(float(v), 9)) for v in row)])


def cmd_classify(cfg: dict, in_path: Path, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    c = cfg["classify"]
    split_seed = cfg["seed"] if c["split_seed"] is None else c["split_seed"]
    if c["method"] == "knn":
        feats = in_path if in_path.suffix == ".csv" else in_path / "features.csv"
        x, _, labels = _read_features_csv(feats)
        report = knn_feature_experiment(x, labels, split_seed=split_seed, k=c["k"],
                                        test_frac=c["test_frac"])
        extra = {"method": "knn", "k": c["k"],
                 "feature_config": cfg["features"]["config"], "split_seed": split_seed}
    else:
        series_path = in_path if in_path.name == "series.json" else in_path / "series.json"
        samples = _samples_from_series(json.loads(series_path.read_text()))
        report = dtw_experiment(samples, c["channel"], split_seed=split_seed,
                                test_frac=c["test_frac"])
        extra = {"method": "dtw", "channel": c["channel"], "split_seed": split_seed}
    _write_report(out, cfg, report, extra)
    print(f"accuracy {report.accuracy:.2f}% -> {out / 'report.json'}")
    return 0


def cmd_eval(cfg: dict, in_path: Path, out: Path) -> int:
    "Metrics from a predictions CSV with columns pred,truth."
    out.mkdir(parents=True, exist_ok=True)
    with open(in_path, newline="") as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    if header[:2] != ["pred", "truth"]:
        raise ConfigError(f"{in_path}: expected columns pred,truth")
    preds, truths = [], []
    for row in reader:
        if row:
            preds.append(row[0])
            truths.append(row[1])
    classes = tuple(sorted(set(preds) | set(truths)))
    report = evaluate(preds, truths, classes)
    _write_report(out, cfg, report, {"method": "eval"})
    print(f"accuracy {report.accuracy:.2f}% -> {out / 'report.json'}")
    return 0


# --- demo ----------------------------------------------------------------------

def cmd_demo(cfg: dict, out: Path) -> int:
    """simulate -> track -> featurize -> classify, feature configs SPR and SPRA."""
    out.mkdir(parents=True, exist_ok=True)
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
        payload = json.loads((rep_dir / "report.json").read_text())
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
