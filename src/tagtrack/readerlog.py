"""Reader log wire format.

One CSV row per window per antenna per tag:

    window_idx,timestamp_s,tag_id,antenna,i_mean,q_mean,iq_blob_path,rss_dbm,phase_rad,detected

IQ blobs are little-endian float64 interleaved I/Q.  ``iq_blob_path`` names
a blob file relative to the CSV; ``<file>@<start>:<count>`` takes ``count``
float64 values from value ``start`` on, and a bare path takes the whole
file.  ``write_reader_log`` packs every row's IQ into one ``iq.bin``; per-row
exports from real readers name one bare file per row.  A ground-truth
sidecar JSON ``{tag_id: [theta_1..theta_T]}`` (degrees) may accompany
synthetic logs.  Lines starting with ``#`` carry run metadata and are
skipped on parse.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_HEADER = ["window_idx", "timestamp_s", "tag_id", "antenna", "i_mean", "q_mean",
              "iq_blob_path", "rss_dbm", "phase_rad", "detected"]
IQ_FILE = "iq.bin"
_SPAN = re.compile(r"([0-9]+):([0-9]+)")


@dataclass
class ReadRecord:
    """One antenna's reads of one tag during one acquisition window."""

    window_idx: int
    timestamp_s: float
    tag_id: str
    antenna: int
    iq: np.ndarray | None          # complex snapshots, None when not detected
    rss_dbm: float
    phase_rad: float
    detected: bool
    iq_blob_path: str = ""


@dataclass
class ReaderLog:
    """Time-ordered read records plus optional per-tag ground truth (radians)."""

    records: list[ReadRecord] = field(default_factory=list)
    truth: dict[str, np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    @property
    def tag_ids(self) -> list[str]:
        seen = dict.fromkeys(r.tag_id for r in self.records)
        return list(seen)

    @property
    def first_window(self) -> int:
        "Smallest acquisition window index: window 0 of the channels and the truth."
        return min((r.window_idx for r in self.records), default=0)

    def validate(self):
        "Check an in-memory log: antennas 1 or 2, finite non-decreasing timestamps."
        last_t = -math.inf
        for i, r in enumerate(self.records):
            if r.antenna not in (1, 2):
                raise ValueError(f"record {i}: antenna must be 1 or 2, got {r.antenna}")
            if not math.isfinite(r.timestamp_s) or r.timestamp_s < last_t:
                raise ValueError(f"record {i}: timestamps must be finite and non-decreasing")
            last_t = r.timestamp_s
        return self


def _fmt(x: float) -> str:
    return "" if isinstance(x, float) and math.isnan(x) else repr(float(x))


def write_blob(fh, iq: np.ndarray) -> int:
    "Append iq to an open binary file as little-endian f64 I/Q; returns the values written."
    buf = np.ascontiguousarray(iq, dtype="<c16")
    fh.write(buf)
    return 2 * buf.size


def read_blob(path: Path) -> np.ndarray:
    "All float64 values of a blob file, read through one open()."
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % 8:
            raise ValueError(f"blob {path} is {size} bytes, not a whole number of float64 values")
        return np.fromfile(fh, dtype="<f8")


def blob_iq(raw: np.ndarray, start: int, count: int, raw_finite: bool = False) -> np.ndarray:
    """Zero-copy complex view of ``count`` float64 values of raw from ``start`` on.

    Rejects an odd count, a span outside raw and non-finite values with a
    ValueError whose message follows the blob's name.  ``read_reader_log``
    checks each blob file once as a whole, ``np.isfinite(raw).all()``, and
    passes the result as ``raw_finite``: the span's own check then runs only
    for a file that holds a non-finite value somewhere, so that the error can
    name the CSV row while a value no row's span covers does no harm.
    """
    if count % 2:
        raise ValueError(f"holds an odd number of floats ({count})")
    if start < 0 or count < 0 or start + count > raw.size:
        raise ValueError(f"runs past the end of its file ({raw.size} floats)")
    iq = raw[start:start + count].view("<c16")
    if not raw_finite and not np.isfinite(iq).all():
        raise ValueError("holds non-finite IQ values")
    return iq


_MEAN_ROWS = 256   # IQ arrays stacked per sum: bounds the copy that _iq_means makes


def _iq_means(iqs: list[np.ndarray]) -> list[tuple[float, float]]:
    """I and Q means of each IQ array, with the bits of ``np.mean`` on each.

    Arrays of one dtype and length are stacked ``_MEAN_ROWS`` at a time and
    summed along axis 1, which is numpy's pairwise sum of each row, as the
    sum of a 1-D array is.
    """
    out: list[tuple[float, float]] = [(math.nan, math.nan)] * len(iqs)
    groups: dict[tuple[np.dtype, int], list[int]] = {}
    for k, iq in enumerate(iqs):
        groups.setdefault((iq.dtype, iq.size), []).append(k)
    for (_, n), ks in groups.items():
        for b in range(0, len(ks), _MEAN_ROWS):
            part = ks[b:b + _MEAN_ROWS]
            m = np.array([iqs[k] for k in part])
            for k, i, q in zip(part, m.real.sum(axis=1).tolist(), m.imag.sum(axis=1).tolist()):
                out[k] = i / n, q / n
    return out


def _csv_rows(records: list[ReadRecord], iq_fh):
    """The readerlog.csv rows of records, made in one pass.

    As its row is made, a detected record's IQ is appended to iq_fh and its
    ``iq_blob_path`` set to that span.  Rows are yielded, not listed, so that
    a long log is never held as text.
    """
    means = iter(_iq_means([rec.iq for rec in records if rec.detected]))
    start = 0
    for rec in records:
        blob_rel = i_mean = q_mean = ""
        if rec.detected:
            count = write_blob(iq_fh, rec.iq)
            blob_rel = f"{IQ_FILE}@{start}:{count}"
            start += count
            i_mean, q_mean = map(_fmt, next(means))
        rec.iq_blob_path = blob_rel
        yield [rec.window_idx, _fmt(rec.timestamp_s), rec.tag_id, rec.antenna,
               i_mean, q_mean, blob_rel, _fmt(rec.rss_dbm), _fmt(rec.phase_rad),
               "true" if rec.detected else "false"]


def write_reader_log(log: ReaderLog, out_dir: str | Path) -> Path:
    """Write readerlog.csv, the packed iq.bin and the truth sidecar under out_dir.

    Sets each written record's ``iq_blob_path`` to its span in iq.bin;
    a log without IQ writes no iq.bin.  A detected record without IQ
    samples, which the reader would reject, raises ValueError naming the
    record before anything is written.
    """
    for i, rec in enumerate(log.records):
        if not rec.detected:
            continue
        where = f"record {i} (window {rec.window_idx}, tag {rec.tag_id}, antenna {rec.antenna})"
        if rec.iq is None or not rec.iq.size:
            raise ValueError(f"{where} is detected but has no IQ samples")
        if not (math.isfinite(rec.rss_dbm) and math.isfinite(rec.phase_rad)):
            raise ValueError(f"{where} is detected but has rss_dbm {rec.rss_dbm!r} and "
                             f"phase_rad {rec.phase_rad!r}; both must be finite")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "readerlog.csv"
    with open(csv_path, "w", newline="") as fh, open(out_dir / IQ_FILE, "wb") as iq_fh:
        if log.meta:
            fh.write("# " + ",".join(f"{k}={v}" for k, v in sorted(log.meta.items())) + "\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(_csv_rows(log.records, iq_fh))
        wrote_iq = iq_fh.tell() > 0
    if not wrote_iq:
        (out_dir / IQ_FILE).unlink()
    if log.truth is not None:
        truth_deg = {tag: [float(np.degrees(v)) for v in series]
                     for tag, series in log.truth.items()}
        (out_dir / "truth.json").write_text(json.dumps(truth_deg, sort_keys=True, indent=1))
    return csv_path


def _row_iq(base: Path, ref: str, blobs: dict[str, tuple[np.ndarray, bool]]) -> np.ndarray:
    """IQ of one row's ``iq_blob_path``.

    Each blob file is read and checked for non-finite values once, into
    blobs as (values, all finite).
    """
    name, at, span = ref.rpartition("@")
    if not at:
        name = ref
    elif not (m := _SPAN.fullmatch(span)):
        raise ValueError(f"malformed iq_blob_path {ref!r}: expected <file>@<start>:<count>")
    if name not in blobs:
        try:
            raw = read_blob(base / name)
        except OSError as e:
            raise ValueError(f"blob {base / name} cannot be read: {e.strerror}") from None
        blobs[name] = raw, bool(np.isfinite(raw).all())
    raw, finite = blobs[name]
    start, count = (int(m[1]), int(m[2])) if at else (0, raw.size)
    try:
        return blob_iq(raw, start, count, raw_finite=finite)
    except ValueError as e:
        raise ValueError(f"blob {base / ref} {e}") from None


def read_reader_log(path: str | Path) -> ReaderLog:
    """Parse a reader log directory (or csv path), loading IQ blobs eagerly.

    Each blob file is opened once; records hold views of its values.  A
    malformed row -- wrong column count, a non-numeric field, a non-finite
    timestamp or one earlier than the row before, bad antenna, duplicate
    (window, tag, antenna), a detected read without a finite RSS and phase
    or without a readable blob span -- raises ValueError naming the CSV
    file and row.
    """
    path = Path(path)
    if path.is_dir():
        base, csv_path = path, path / "readerlog.csv"
    else:
        base, csv_path = path.parent, path
    records = []
    seen: set[tuple[int, str, int]] = set()
    blobs: dict[str, tuple[np.ndarray, bool]] = {}
    last_t = -math.inf
    with open(csv_path, newline="") as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected reader log header: {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"has {len(row)} columns, expected {len(CSV_HEADER)}")
            window_idx, antenna = int(row[0]), int(row[3])
            if antenna not in (1, 2):
                raise ValueError(f"antenna must be 1 or 2, got {antenna}")
            key = (window_idx, row[2], antenna)
            if key in seen:
                raise ValueError(f"duplicate row for window {window_idx}, tag {row[2]}, "
                                 f"antenna {antenna}")
            seen.add(key)
            timestamp = float(row[1])
            if not math.isfinite(timestamp):
                raise ValueError(f"timestamp_s {row[1]!r} is not finite")
            if timestamp < last_t:
                raise ValueError(f"timestamp_s {row[1]} is earlier than the row before "
                                 f"({last_t!r}); rows must be in time order")
            last_t = timestamp
            rss = float(row[7]) if row[7] else math.nan
            phase = float(row[8]) if row[8] else math.nan
            detected = row[9].strip().lower() == "true"
            if detected:
                if not row[6]:
                    raise ValueError("detected read has no iq_blob_path")
                if not (math.isfinite(rss) and math.isfinite(phase)):
                    raise ValueError(f"detected read has rss_dbm {row[7]!r} and phase_rad "
                                     f"{row[8]!r}; both must be finite")
            records.append(ReadRecord(
                window_idx=window_idx, timestamp_s=timestamp, tag_id=row[2], antenna=antenna,
                iq=_row_iq(base, row[6], blobs) if detected else None,
                rss_dbm=rss, phase_rad=phase, detected=detected, iq_blob_path=row[6],
            ))
        except ValueError as e:
            raise ValueError(f"{csv_path} row {lineno}: {e}") from None
    truth = None
    truth_path = base / "truth.json"
    if truth_path.exists():
        truth_deg = json.loads(truth_path.read_text())
        truth = {tag: np.radians(np.asarray(v, dtype=float)) for tag, v in truth_deg.items()}
    return ReaderLog(records=records, truth=truth)
