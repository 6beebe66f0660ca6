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

from .artifacts import (check_test_split, feature_table, manifest_samples, measurement_table,
                        naming_sample, read_features_csv, read_predictions, report_artifacts,
                        series_entry, series_samples, track_artifacts)
from .classify import evaluate
from .config import (ConfigError, config_hash, dataset_spec_from, geometry_from, kalman_from,
                     load_config, music_search_from, schedule_from)
from .features import FEATURE_CONFIGS, featurize_dataset
from .pipeline import (dtw_experiment, gesture_dataset, knn_feature_experiment,
                       synthesize_fixed_log, tracked_sample)
from .preprocess import windows_by_tag
from .readerlog import _json_text, _meta_line, read_reader_log, write_reader_log
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

def cmd_simulate(cfg: dict, out: Path) -> None:
    geo, sched, spec = geometry_from(cfg), schedule_from(cfg), dataset_spec_from(cfg)
    s = cfg["scene"]
    if s["mode"] == "fixed":
        angles = {tag: math.radians(deg) for tag, deg in s["fixed_tags_deg"].items()}
        log = synthesize_fixed_log(geo, sched, spec, angles, cfg["seed"])
        log.meta = _meta(cfg)
        write_reader_log(log, out)
        print(f"wrote fixed-tag reader log: {out / 'readerlog.csv'}")
        return
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


# --- estimate ----------------------------------------------------------------

def cmd_estimate(cfg: dict, in_path: Path, out: Path) -> None:
    windows = windows_by_tag(read_reader_log(in_path))
    measurements = measure_windows(windows, geometry_from(cfg), schedule_from(cfg),
                                   music_search_from(cfg))
    header, rows = measurement_table(measurements, geometry_from(cfg))
    _write_csv(out / "measurements.csv", cfg, header, rows)
    print(f"wrote {out / 'measurements.csv'} ({len(rows)} measurements)")


# --- track -------------------------------------------------------------------

def cmd_track(cfg: dict, in_path: Path, out: Path) -> None:
    manifest_path = in_path / "manifest.json"
    geo, sched, kalman, search = (geometry_from(cfg), schedule_from(cfg), kalman_from(cfg),
                                  music_search_from(cfg))
    if not manifest_path.exists():
        log = read_reader_log(in_path)
        tracks = track_aoa(log, geo, music_search=search, kalman=kalman, schedule=sched)
        payload, plots = track_artifacts(log, tracks)
        _write_json(out / "tracks.json", {**_meta(cfg), **payload})
        for tag, (header, rows) in plots.items():
            _write_csv(out / f"track_plot_{tag}.csv", cfg, header, rows)
        print(f"wrote {out / 'tracks.json'}")
        return
    series = {"samples": [], **_meta(cfg)}
    for entry in manifest_samples(manifest_path):
        log_dir = in_path / entry["dir"]
        log = read_reader_log(log_dir)
        if not len(log):
            raise ValueError(f"{log_dir / 'readerlog.csv'} has no read rows")
        sample = tracked_sample(log, entry["label"], geo, sched, kalman=kalman,
                                music_search=search)
        series["samples"].append(series_entry(entry["id"], sample))
    _write_json(out / "series.json", series)
    print(f"wrote {out / 'series.json'} ({len(series['samples'])} samples)")


# --- featurize ----------------------------------------------------------------

def cmd_featurize(cfg: dict, in_path: Path, out: Path) -> None:
    series_path = _input_file(in_path, "series.json")
    if not series_path.exists():
        raise FileNotFoundError(f"{series_path} not found; run `track` on the dataset first")
    ids, samples = series_samples(series_path)
    config_name = cfg["features"]["config"]
    with naming_sample(series_path, ids):
        x, layout, labels = featurize_dataset(samples, FEATURE_CONFIGS[config_name])
    _write_csv(out / "features.csv", cfg, *feature_table(x, layout, labels))
    _write_json(out / "layout.json",
                {**_meta(cfg), "config": config_name, "layout": list(layout)})
    print(f"wrote {out / 'features.csv'} ({x.shape[0]} x {x.shape[1]})")


# --- classify / eval -----------------------------------------------------------

def _write_report(out: Path, cfg: dict, report, extra: dict) -> dict:
    "Write report.json and confusion.csv, and return the report.json payload."
    payload, confusion = report_artifacts(report, {**_meta(cfg), **extra})
    _write_json(out / "report.json", payload)
    _write_csv(out / "confusion.csv", cfg, *confusion)
    print(f"accuracy {report.accuracy:.2f}% -> {out / 'report.json'}")
    return payload


def cmd_classify(cfg: dict, in_path: Path, out: Path) -> dict:
    "Classify features.csv (knn) or series.json (dtw); return the report.json payload."
    c = cfg["classify"]
    split_seed = cfg["seed"] if c["split_seed"] is None else c["split_seed"]
    if c["method"] == "knn":
        feats = _input_file(in_path, "features.csv")
        x, _, labels = read_features_csv(feats)
        check_test_split(feats, labels)
        report = knn_feature_experiment(x, labels, split_seed=split_seed, k=c["k"],
                                        test_frac=c["test_frac"])
        extra = {"method": "knn", "k": c["k"],
                 "feature_config": cfg["features"]["config"], "split_seed": split_seed}
    else:
        series_path = _input_file(in_path, "series.json")
        ids, samples = series_samples(series_path)
        check_test_split(series_path, [s.label for s in samples])
        with naming_sample(series_path, ids):
            report = dtw_experiment(samples, c["channel"], split_seed=split_seed,
                                    test_frac=c["test_frac"])
        extra = {"method": "dtw", "channel": c["channel"], "split_seed": split_seed}
    return _write_report(out, cfg, report, extra)


def cmd_eval(cfg: dict, in_path: Path, out: Path) -> None:
    "Metrics from a predictions CSV with columns pred,truth."
    preds, truths = read_predictions(in_path)
    report = evaluate(preds, truths, tuple(sorted(set(preds) | set(truths))))
    _write_report(out, cfg, report, {"method": "eval"})


# --- demo ----------------------------------------------------------------------

def cmd_demo(cfg: dict, out: Path) -> None:
    """simulate -> track -> featurize -> classify, feature configs SPR and SPRA."""
    data_dir = out / "dataset"
    cmd_simulate(cfg, data_dir)
    cmd_track(cfg, data_dir, out / "tracks")
    reports = {}
    for name in ("SPR", "SPRA"):
        sub = dict(cfg, features={"config": name})
        cmd_featurize(sub, out / "tracks", out / f"features_{name}")
        reports[name] = cmd_classify(sub, out / f"features_{name}" / "features.csv",
                                     out / f"report_{name}")
    spr, spra = (reports[name]["metrics"]["accuracy"] for name in ("SPR", "SPRA"))
    _write_json(out / "report.json", {**_meta(cfg), "accuracy_SPR": spr, "accuracy_SPRA": spra,
                                      "aoa_gain_points": round(spra - spr, 6),
                                      "reports": reports})
    print(f"demo: SPR {spr:.2f}% vs SPRA {spra:.2f}% -> {out / 'report.json'}")


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
        command = globals()[f"cmd_{args.command}"]   # read per call: perfbench rebinds it
        if "in_path" in args:
            command(cfg, args.in_path, args.out)
        else:
            command(cfg, args.out)
    except (ConfigError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
