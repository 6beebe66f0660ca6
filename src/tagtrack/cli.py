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

from .classify import (LabeledDataset, dtw_1nn_classify, evaluate,
                       knn_feature_classify, stratified_split)
from .config import (ConfigError, config_hash, geometry_from, kalman_from,
                     load_config, music_search_from, schedule_from)
from .features import FEATURE_CONFIGS, featurize_dataset
from .pipeline import (DatasetSpec, attach_tracks, series_bundle,
                       synthesize_gesture)
from .preprocess import (prune_single_antenna_segments, read_windows,
                         split_by_tag, window_segments, write_windows)
from .readerlog import read_reader_log, write_reader_log
from .simulate import GestureSample, SASSchedule, anechoic_scene, lab_scene, simulate_window
from .tracking import track_aoa


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
                       angle_gain_db=s["angle_gain_db"], angle_phase_rad=s["angle_phase_rad"])


# --- simulate ----------------------------------------------------------------

def _simulate_fixed(cfg: dict, out: Path) -> int:
    geo = geometry_from(cfg)
    sched = schedule_from(cfg)
    s = cfg["scene"]
    tags = sorted(s["fixed_tags_deg"])
    angles = [math.radians(s["fixed_tags_deg"][t]) for t in tags]
    seed = cfg["seed"]
    rng = np.random.default_rng([seed, 0])
    if s["nlos_paths"] > 0:
        scene = lab_scene(geo, s["snr_db"], rng, tag_ids=tuple(tags),
                          n_paths=s["nlos_paths"], nlos_gain_db=s["nlos_gain_db"])
    else:
        scene = anechoic_scene(geo, s["snr_db"], tag_ids=tuple(tags))
    scene.tx_power = s["tx_power"]
    scene.modulation_gain = s["modulation_gain"]
    p = s["misdetect_prob"]
    scene.misdetect_prob = (p, p) if np.isscalar(p) else tuple(p)
    scene.__post_init__()
    from .readerlog import ReaderLog, ReadRecord
    records = []
    T = s["windows"]
    for t in range(T):
        windows = {w.tag_id: w for w in
                   simulate_window(scene, sched, angles, [seed, 1, t], window_idx=t)}
        for slot, tag in enumerate(tags, start=1):
            w = windows.get(tag)
            for m in (1, 2):
                t_row = float(sched.sample_times(t, m, min(slot, 2))[0])
                row = None if w is None else w.matrix[m - 1]
                ok = row is not None and not np.isnan(row[0].real)
                if ok:
                    mean_iq = complex(np.mean(row))
                    records.append(ReadRecord(t, t_row, tag, m, np.asarray(row),
                                              20.0 * math.log10(abs(mean_iq)),
                                              math.atan2(mean_iq.imag, mean_iq.real), True))
                else:
                    records.append(ReadRecord(t, t_row, tag, m, None, math.nan, math.nan, False))
    records.sort(key=lambda r: r.timestamp_s)
    truth = {tag: np.full(T, angles[i]) for i, tag in enumerate(tags)}
    log = ReaderLog(records=records, truth=truth, meta=_meta(cfg)).validate()
    write_reader_log(log, out)
    print(f"wrote fixed-tag reader log: {out / 'readerlog.csv'}")
    return 0


def cmd_simulate(cfg: dict, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if cfg["scene"]["mode"] == "fixed":
        return _simulate_fixed(cfg, out)
    geo = geometry_from(cfg)
    sched = schedule_from(cfg)
    spec = _dataset_spec(cfg)
    seed = cfg["seed"]
    manifest = {"samples": [], **_meta(cfg)}
    n = 0
    for ci, class_id in enumerate(spec.classes):
        for i in range(spec.samples_per_class):
            sample, log = synthesize_gesture(class_id, geo, sched, spec, seed=[seed, ci, i])
            log.meta = _meta(cfg)
            sdir = out / "samples" / f"g{n:04d}"
            write_reader_log(log, sdir)
            manifest["samples"].append({"id": f"g{n:04d}", "label": class_id,
                                        "dir": f"samples/g{n:04d}"})
            n += 1
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {n} gesture logs under {out}")
    return 0


# --- estimate ----------------------------------------------------------------

def cmd_estimate(cfg: dict, in_path: Path, out: Path) -> int:
    geo = geometry_from(cfg)
    out.mkdir(parents=True, exist_ok=True)
    if in_path.is_dir() and (in_path / "windows.json").exists() or in_path.name == "windows.json":
        windows_by_tag = read_windows(in_path)
    else:
        log = read_reader_log(in_path)
        spw = cfg["windowing"]["samples_per_window"]
        windows_by_tag = {}
        for tag, records in split_by_tag(log).items():
            pruned = prune_single_antenna_segments(records)
            if not pruned:
                continue
            size = spw if spw is not None else 2 * max(r.iq.size for r in pruned)
            windows_by_tag[tag] = window_segments(pruned, size, tag_id=tag)
        write_windows(windows_by_tag, out / "windows", meta=_meta(cfg))
    from .music import estimate_aoa
    search = music_search_from(cfg)
    sched = schedule_from(cfg)
    rows = []
    for slot, tag in enumerate(sorted(windows_by_tag), start=1):
        for w in windows_by_tag[tag]:
            tx = None
            if sched.residual_phase and w.matrix.shape[1] == sched.cols:
                # recover the acquisition window index from the midpoint to
                # rebuild the transmit sequence the reader used
                src = int(round(w.midpoint_time_s / sched.window_duration_s - 0.5))
                tx = np.vstack([sched.tx_sequence(src, m, min(slot, 2),
                                                  geo.carrier_freq_hz) for m in (1, 2)])
            m = estimate_aoa(w, geo, search=search, tx_sequence=tx)
            rows.append([tag, w.window_idx,
                         _fmt(math.degrees(m.theta_hat)) if m.valid else "",
                         _fmt(m.spectrum_peak) if m.valid else "",
                         "true" if m.valid else "false"])
    with open(out / "measurements.csv", "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)},seed={cfg['seed']}\n")
        writer = csv.writer(fh)
        writer.writerow(["tag_id", "window_idx", "theta_deg", "peak", "valid"])
        writer.writerows(rows)
    print(f"wrote {out / 'measurements.csv'} ({len(rows)} measurements)")
    return 0


# --- track -------------------------------------------------------------------

def _track_one(cfg: dict, log_dir: Path, out: Path, label: str | None = None) -> dict:
    geo = geometry_from(cfg)
    log = read_reader_log(log_dir)
    tracks = track_aoa(log, geo, samples_per_window=cfg["windowing"]["samples_per_window"],
                       music_search=music_search_from(cfg),
                       kalman=kalman_from(cfg))
    payload: dict = {**_meta(cfg), "tags": {}}
    if label is not None:
        payload["label"] = label
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
        truth_series = None
        if log.truth and tag in log.truth:
            truth_series = log.truth[tag]
        with open(out / f"track_plot_{tag}.csv", "w", newline="") as fh:
            fh.write(f"# config_hash={config_hash(cfg)},seed={cfg['seed']}\n")
            writer = csv.writer(fh)
            writer.writerow(["window", "truth", "raw", "filtered", "smoothed"])
            dt_acq = None
            if truth_series is not None and tr.midpoint_s is not None and len(truth_series) > 0:
                dt_acq = SASSchedule(cfg["schedule"]["samples_per_window"],
                                     cfg["schedule"]["sample_period_s"]).window_duration_s
            for t in range(tr.n_windows):
                truth_val = ""
                if dt_acq:
                    w = int(round(tr.midpoint_s[t] / dt_acq - 0.5))
                    if 0 <= w < len(truth_series):
                        truth_val = _fmt(deg(truth_series[w]))
                writer.writerow([
                    t, truth_val,
                    _fmt(deg(tr.z[t])) if np.isfinite(tr.z[t]) else "",
                    _fmt(deg(tr.filtered_series()[t])),
                    _fmt(deg(tr.smoothed_series()[t])),
                ])
    return payload


def cmd_track(cfg: dict, in_path: Path, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = in_path / "manifest.json"
    if not manifest_path.exists():
        _track_one(cfg, in_path, out)
        print(f"wrote {out / 'tracks.json'}")
        return 0
    manifest = json.loads(manifest_path.read_text())
    geo = geometry_from(cfg)
    series = {"samples": [], **_meta(cfg)}
    for entry in manifest["samples"]:
        log = read_reader_log(in_path / entry["dir"])
        sample = _sample_from_log(log, entry["label"], cfg)
        attach_tracks(sample, log, geo, kalman=kalman_from(cfg),
                      samples_per_window=cfg["windowing"]["samples_per_window"])
        channels = {}
        for tag in sample.tag_ids:
            for kind in ("rss", "phase", "aoa"):
                vals = getattr(sample, kind)[tag]
                channels[f"{tag}:{kind}"] = [None if not np.isfinite(v) else round(float(v), 9)
                                             for v in vals]
        series["samples"].append({"id": entry["id"], "label": entry["label"],
                                  "n_windows": sample.n_windows, "dt_s": sample.dt_s,
                                  "channels": channels})
    _write_json(out / "series.json", series)
    print(f"wrote {out / 'series.json'} ({len(series['samples'])} samples)")
    return 0


def _sample_from_log(log, label: str, cfg: dict) -> GestureSample:
    "Rebuild the channel series of a gesture sample from its reader log."
    tags = log.tag_ids
    T = 1 + max(r.window_idx for r in log.records)
    rss = {t: np.full(T, np.nan) for t in tags}
    phase = {t: np.full(T, np.nan) for t in tags}
    for r in log.records:
        if r.detected and r.antenna == 1:
            rss[r.tag_id][r.window_idx] = r.rss_dbm
            phase[r.tag_id][r.window_idx] = r.phase_rad
    sched = schedule_from(cfg)
    truth = log.truth or {}
    return GestureSample(label=label, tag_ids=tags, truth=truth, rss=rss, phase=phase,
                         n_windows=T, dt_s=sched.window_duration_s)


# --- featurize ----------------------------------------------------------------

def _samples_from_series(series: dict) -> list[GestureSample]:
    out = []
    for entry in series["samples"]:
        tags = sorted({key.split(":")[0] for key in entry["channels"]})
        def _arr(tag, kind, entry=entry):
            vals = entry["channels"].get(f"{tag}:{kind}")
            if vals is None:
                return None
            return np.array([np.nan if v is None else v for v in vals], dtype=float)
        sample = GestureSample(
            label=entry["label"], tag_ids=tags, truth={},
            rss={t: _arr(t, "rss") for t in tags},
            phase={t: _arr(t, "phase") for t in tags},
            aoa={t: _arr(t, "aoa") for t in tags},
            n_windows=entry["n_windows"], dt_s=entry["dt_s"])
        for d in (sample.rss, sample.phase, sample.aoa):
            for t in list(d):
                if d[t] is None:
                    del d[t]
        out.append(sample)
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
    method = cfg["classify"]["method"]
    split_seed = cfg["classify"]["split_seed"]
    split_seed = cfg["seed"] if split_seed is None else split_seed
    test_frac = cfg["classify"]["test_frac"]
    if method == "knn":
        feats = in_path if in_path.suffix == ".csv" else in_path / "features.csv"
        x, layout, labels = _read_features_csv(feats)
        train_idx, test_idx = stratified_split(labels, test_frac=test_frac, seed=split_seed)
        classes = tuple(sorted(set(labels)))
        train = LabeledDataset(labels=[labels[i] for i in train_idx], features=x[train_idx],
                               classes=classes, split_seed=split_seed)
        preds = [knn_feature_classify(train, x[i], k=cfg["classify"]["k"]) for i in test_idx]
        report = evaluate(preds, [labels[i] for i in test_idx], classes)
        extra = {"method": "knn", "k": cfg["classify"]["k"],
                 "feature_config": cfg["features"]["config"], "split_seed": split_seed}
    else:
        series_path = in_path if in_path.name == "series.json" else in_path / "series.json"
        samples = _samples_from_series(json.loads(series_path.read_text()))
        channel = cfg["classify"]["channel"]
        labels = [s.label for s in samples]
        bundles = [series_bundle(s, channel) for s in samples]
        train_idx, test_idx = stratified_split(labels, test_frac=test_frac, seed=split_seed)
        classes = tuple(sorted(set(labels)))
        train = LabeledDataset(labels=[labels[i] for i in train_idx],
                               bundles=[bundles[i] for i in train_idx], classes=classes,
                               split_seed=split_seed)
        preds = [dtw_1nn_classify(train, bundles[i]) for i in test_idx]
        report = evaluate(preds, [labels[i] for i in test_idx], classes)
        extra = {"method": "dtw", "channel": channel, "split_seed": split_seed}
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
