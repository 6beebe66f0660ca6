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


def _mean(x: np.ndarray) -> float:
    "Bitwise np.mean of a float64 array at less call overhead; NaN when empty."
    return float(x.sum()) / x.size if x.size else math.nan


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

    @property
    def i_mean(self) -> float:
        return _mean(self.iq.real) if self.detected and self.iq is not None else math.nan

    @property
    def q_mean(self) -> float:
        return _mean(self.iq.imag) if self.detected and self.iq is not None else math.nan


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


def blob_iq(raw: np.ndarray, start: int, count: int) -> np.ndarray:
    """Zero-copy complex view of ``count`` float64 values of raw from ``start`` on.

    Rejects an odd count, a span outside raw and non-finite values with a
    ValueError whose message follows the blob's name.
    """
    if count % 2:
        raise ValueError(f"holds an odd number of floats ({count})")
    if start < 0 or count < 0 or start + count > raw.size:
        raise ValueError(f"runs past the end of its file ({raw.size} floats)")
    iq = raw[start:start + count].view("<c16")
    if not np.isfinite(iq).all():
        raise ValueError("holds non-finite IQ values")
    return iq


def write_reader_log(log: ReaderLog, out_dir: str | Path) -> Path:
    """Write readerlog.csv, the packed iq.bin and the truth sidecar under out_dir.

    Sets each written record's ``iq_blob_path`` to its span in iq.bin;
    a log without IQ writes no iq.bin.  A detected record without IQ
    samples, which the reader would reject, raises ValueError naming the
    record before anything is written.
    """
    for i, rec in enumerate(log.records):
        if rec.detected and (rec.iq is None or not rec.iq.size):
            raise ValueError(f"record {i} (window {rec.window_idx}, tag {rec.tag_id}, "
                             f"antenna {rec.antenna}) is detected but has no IQ samples")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "readerlog.csv"
    start = 0
    with open(csv_path, "w", newline="") as fh, open(out_dir / IQ_FILE, "wb") as iq_fh:
        if log.meta:
            fh.write("# " + ",".join(f"{k}={v}" for k, v in sorted(log.meta.items())) + "\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in log.records:
            blob_rel = ""
            if rec.detected:
                count = write_blob(iq_fh, rec.iq)
                blob_rel = f"{IQ_FILE}@{start}:{count}"
                start += count
            rec.iq_blob_path = blob_rel
            writer.writerow([
                rec.window_idx, _fmt(rec.timestamp_s), rec.tag_id, rec.antenna,
                _fmt(rec.i_mean), _fmt(rec.q_mean), blob_rel,
                _fmt(rec.rss_dbm), _fmt(rec.phase_rad),
                "true" if rec.detected else "false",
            ])
    if not start:
        (out_dir / IQ_FILE).unlink()
    if log.truth is not None:
        truth_deg = {tag: [float(np.degrees(v)) for v in series]
                     for tag, series in log.truth.items()}
        (out_dir / "truth.json").write_text(json.dumps(truth_deg, sort_keys=True, indent=1))
    return csv_path


def _row_iq(base: Path, ref: str, blobs: dict[str, np.ndarray]) -> np.ndarray:
    "IQ of one row's ``iq_blob_path``; each blob file is read once into blobs."
    name, at, span = ref.rpartition("@")
    if not at:
        name = ref
    elif not (m := _SPAN.fullmatch(span)):
        raise ValueError(f"malformed iq_blob_path {ref!r}: expected <file>@<start>:<count>")
    if name not in blobs:
        try:
            blobs[name] = read_blob(base / name)
        except OSError as e:
            raise ValueError(f"blob {base / name} cannot be read: {e.strerror}") from None
    raw = blobs[name]
    try:
        return blob_iq(raw, int(m[1]), int(m[2])) if at else blob_iq(raw, 0, raw.size)
    except ValueError as e:
        raise ValueError(f"blob {base / ref} {e}") from None


def read_reader_log(path: str | Path) -> ReaderLog:
    """Parse a reader log directory (or csv path), loading IQ blobs eagerly.

    Each blob file is opened once; records hold views of its values.  A
    malformed row -- wrong column count, a non-numeric or non-finite field,
    bad antenna, duplicate (window, tag, antenna), a detected read without
    a readable blob span -- raises ValueError naming the CSV file and row.
    """
    path = Path(path)
    if path.is_dir():
        base, csv_path = path, path / "readerlog.csv"
    else:
        base, csv_path = path.parent, path
    records = []
    seen: set[tuple[int, str, int]] = set()
    blobs: dict[str, np.ndarray] = {}
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
            detected = row[9].strip().lower() == "true"
            if detected and not row[6]:
                raise ValueError("detected read has no iq_blob_path")
            records.append(ReadRecord(
                window_idx=window_idx, timestamp_s=timestamp, tag_id=row[2], antenna=antenna,
                iq=_row_iq(base, row[6], blobs) if detected else None,
                rss_dbm=float(row[7]) if row[7] else math.nan,
                phase_rad=float(row[8]) if row[8] else math.nan,
                detected=detected, iq_blob_path=row[6],
            ))
        except ValueError as e:
            raise ValueError(f"{csv_path} row {lineno}: {e}") from None
    truth = None
    truth_path = base / "truth.json"
    if truth_path.exists():
        truth_deg = json.loads(truth_path.read_text())
        truth = {tag: np.radians(np.asarray(v, dtype=float)) for tag, v in truth_deg.items()}
    return ReaderLog(records=records, truth=truth).validate()
