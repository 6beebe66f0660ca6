"""Artifact formats but the reader log's (``readerlog``): one reader or builder per file.

Owners: ``manifest.json`` ``manifest_samples``; ``measurements.csv``
``measurement_table``; ``tracks.json`` and ``track_plot_<tag>.csv``
``track_artifacts``; ``series.json`` ``series_entry`` and ``series_samples``;
``features.csv`` ``feature_table`` and ``read_features_csv``; the
predictions CSV ``read_predictions``; ``report.json`` and ``confusion.csv``
``report_artifacts``.  Readers raise ValueError naming the file and the row
(the header is row 1, comment lines uncounted) or the sample.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import ConfigError
from .features import SampleFeatureError
from .music import spectrum_peaks
from .pipeline import truth_on_track
from .readerlog import _csv_lines, _fmt, _load_json
from .simulate import GestureSample


def _sample_entries(path: Path):
    "Yield (index, entry) of a dataset JSON's non-empty ``samples`` list of objects, or ValueError."
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("samples"), list):
        raise ValueError(f"{path} has no 'samples' list")
    if not doc["samples"]:
        raise ValueError(f"{path} has no samples")
    for i, entry in enumerate(doc["samples"]):
        if not isinstance(entry, dict):
            raise ValueError(f"{path} sample #{i}: not an object")
        yield i, entry


def _csv_table(path: Path):
    "The header row of a CSV file and (row number, row) per non-blank row; comments uncounted."
    reader = csv.reader(_csv_lines(path))
    return next(reader, None), ((k, row) for k, row in enumerate(reader, start=2) if row)


def manifest_samples(path: Path) -> list[dict]:
    "The sample entries of a dataset ``manifest.json``, each with ``id``, ``dir`` and ``label``."
    entries = []
    for i, entry in _sample_entries(path):
        for key in ("id", "dir", "label"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"{path} sample #{i}: no {key!r} string")
        entries.append(entry)
    return entries


def measurement_table(measurements: dict, geometry) -> tuple[list[str], list[list]]:
    "Header and rows of ``measurements.csv`` for each tag's AoA measurements."
    flat = [(tag, m) for tag, tag_meas in measurements.items() for m in tag_meas]
    thetas = _fmt(math.degrees(m.theta_hat) for _, m in flat)
    peaks = _fmt(spectrum_peaks([m for _, m in flat], geometry).tolist())
    rows = [[tag, m.window_idx, theta, peak, "true"]
            for (tag, m), theta, peak in zip(flat, thetas, peaks)]
    return ["tag_id", "window_idx", "theta_deg", "peak", "valid"], rows


def _cov_traces(covs: np.ndarray) -> np.ndarray:
    """Trace of each 2x2 covariance of a (T, 2, 2) stack; np.trace sums from +0.0, so a
    (-0.0, -0.0) diagonal has trace +0.0, not the -0.0 of ``covs[:, 0, 0] + covs[:, 1, 1]``."""
    return np.trace(covs, axis1=1, axis2=2)


def track_artifacts(log, tracks: dict) -> tuple[dict, dict]:
    "The ``tracks.json`` payload, and the header and rows of each tag's plot CSV; in degrees."
    payload, plots, deg = {"tags": {}}, {}, math.degrees
    for tag, tr in sorted(tracks.items()):
        filtered, smoothed = tr.filtered_series().tolist(), tr.smoothed_series().tolist()
        payload["tags"][tag] = {
            "dt_s": tr.dt,
            "missing": (~tr.valid).tolist(),
            "raw_deg": [round(deg(v), 6) if math.isfinite(v) else None for v in tr.z.tolist()],
            "filtered_deg": [round(deg(v), 6) for v in filtered],
            "smoothed_deg": [round(deg(v), 6) for v in smoothed],
            "cov_trace": [round(v, 9) for v in _cov_traces(tr.post_covs).tolist()],
            "smoothed_cov_trace": [round(v, 9) for v in _cov_traces(tr.smoothed_covs).tolist()],
            "midpoint_s": [round(v, 9) for v in tr.midpoint_s.tolist()],
        }
        truth = [math.nan] * tr.n_windows
        if log.truth and tag in log.truth:
            truth = truth_on_track(tr, log.truth[tag], log.first_window).tolist()
        columns = [_fmt(map(deg, values)) for values in (truth, tr.z.tolist(), filtered, smoothed)]
        plots[tag] = (["window", "truth", "raw", "filtered", "smoothed"],
                      zip(range(tr.n_windows), *columns))
    return payload, plots


def series_entry(sample_id: str, sample: GestureSample) -> dict:
    "The ``series.json`` entry of a sample: its channels, NaN as null."
    channels = {f"{tag}:{kind}": [None if not np.isfinite(v) else round(float(v), 9)
                                  for v in getattr(sample, kind)[tag]]
                for tag in sample.tag_ids for kind in ("rss", "phase", "aoa")}
    return {"id": sample_id, "label": sample.label, "n_windows": sample.n_windows,
            "dt_s": sample.dt_s, "channels": channels}


def series_samples(path: Path) -> tuple[list[str], list[GestureSample]]:
    "The sample ids and samples of a ``series.json``; each channel ``n_windows`` numbers or nulls."
    ids, out = [], []
    for i, entry in _sample_entries(path):
        where = f"{path} sample {entry.get('id', f'#{i}')}"
        for key in ("id", "label", "n_windows", "dt_s", "channels"):
            if key not in entry:
                raise ValueError(f"{where}: no {key!r}")
        if not isinstance(entry["channels"], dict):
            raise ValueError(f"{where}: channels is not an object")
        n = entry["n_windows"]
        if not (type(n) is int and n > 0):   # type(), not isinstance(): true is an int too
            raise ValueError(f"{where}: n_windows {n!r} is not a positive integer")
        if type(entry["dt_s"]) not in (int, float):
            raise ValueError(f"{where}: dt_s {entry['dt_s']!r} is not a number")
        chans = {}
        for key, vals in entry["channels"].items():
            if not isinstance(vals, list):
                raise ValueError(f"{where}: channel {key!r} is not a list")
            if len(vals) != n:
                raise ValueError(f"{where}: channel {key!r} has {len(vals)} values, "
                                 f"n_windows is {n}")
            bad = next((v for v in vals if type(v) not in (int, float, type(None))), None)
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


@contextmanager
def naming_sample(path: Path, ids: list[str]):
    "Raise a SampleFeatureError of the samples read from path as ValueError naming the sample id."
    try:
        yield
    except SampleFeatureError as e:
        raise ValueError(f"{path} sample {ids[e.index]}: {e}") from None


def feature_table(x: np.ndarray, layout, labels) -> tuple[list[str], object]:
    "Header and rows of ``features.csv``: the layout, then ``label``; each value its repr."
    return [*layout, "label"], ([*(repr(float(v)) for v in row), label]
                                for row, label in zip(x, labels))


def read_features_csv(path: Path):
    "Feature matrix, layout and labels of a ``features.csv``."
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


def check_test_split(path: Path, labels: list[str]):
    "Fail naming the file when no class has two rows: the stratified test split would be empty."
    if len(set(labels)) == len(labels):
        raise ValueError(f"{path} has no class with two rows, so the test split is empty")


def read_predictions(path: Path) -> tuple[list[str], list[str]]:
    "Predicted and true labels of a CSV with columns pred,truth (another header: ConfigError)."
    header, rows = _csv_table(path)
    if not header or header[:2] != ["pred", "truth"]:
        raise ConfigError(f"{path}: expected columns pred,truth")
    preds, truths = [], []
    for lineno, row in rows:
        if len(row) < 2:
            raise ValueError(f"{path} row {lineno}: has {len(row)} field, expected pred,truth")
        preds.append(row[0])
        truths.append(row[1])
    if not preds:
        raise ValueError(f"{path} has no prediction rows")
    return preds, truths


def report_artifacts(report, extra: dict) -> tuple[dict, tuple]:
    "The ``report.json`` payload, the run's ``extra`` settings and metrics, and ``confusion.csv``."
    return {**extra, "metrics": report.as_dict()}, (
        ["true\\pred", *report.classes],
        ([cls, *(repr(round(float(v), 9)) for v in row)]
         for cls, row in zip(report.classes, report.confusion)))
