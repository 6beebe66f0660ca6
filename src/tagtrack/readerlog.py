"""Reader log wire format.

One CSV row per window per antenna per tag:

    window_idx,timestamp_s,tag_id,antenna,i_mean,q_mean,iq_blob_path,rss_dbm,phase_rad,detected

IQ blobs are little-endian float64 interleaved I/Q files, one per row.
A ground-truth sidecar JSON ``{tag_id: [theta_1..theta_T]}`` (degrees) may
accompany synthetic logs.  Lines starting with ``#`` carry run metadata and
are skipped on parse.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_HEADER = ["window_idx", "timestamp_s", "tag_id", "antenna", "i_mean", "q_mean",
              "iq_blob_path", "rss_dbm", "phase_rad", "detected"]


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
        return float(np.mean(self.iq.real)) if self.detected and self.iq is not None else math.nan

    @property
    def q_mean(self) -> float:
        return float(np.mean(self.iq.imag)) if self.detected and self.iq is not None else math.nan


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
            if r.timestamp_s < last_t:
                raise ValueError(f"record {i}: timestamps must be non-decreasing")
            last_t = r.timestamp_s
        return self


def _fmt(x: float) -> str:
    return "" if isinstance(x, float) and math.isnan(x) else repr(float(x))


def write_blob(path: Path, iq: np.ndarray):
    "Interleave I/Q as little-endian f64 and write to path."
    out = np.empty(2 * iq.size, dtype="<f8")
    out[0::2] = iq.real
    out[1::2] = iq.imag
    path.write_bytes(out.tobytes())


def read_blob(path: Path) -> np.ndarray:
    "Complex IQ of a blob; rejects an odd float count and non-finite values."
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    if raw.size % 2:
        raise ValueError(f"blob {path} holds an odd number of floats ({raw.size})")
    if not np.isfinite(raw).all():
        raise ValueError(f"blob {path} holds non-finite IQ values")
    return raw[0::2] + 1j * raw[1::2]


def write_reader_log(log: ReaderLog, out_dir: str | Path) -> Path:
    """Write readerlog.csv, per-row blobs and the truth sidecar under out_dir."""
    out_dir = Path(out_dir)
    blob_dir = out_dir / "blobs"
    blob_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "readerlog.csv"
    with open(csv_path, "w", newline="") as fh:
        if log.meta:
            fh.write("# " + ",".join(f"{k}={v}" for k, v in sorted(log.meta.items())) + "\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in log.records:
            blob_rel = ""
            if rec.detected and rec.iq is not None and rec.iq.size:
                blob_rel = f"blobs/w{rec.window_idx:05d}_t{rec.tag_id}_a{rec.antenna}.bin"
                write_blob(out_dir / blob_rel, rec.iq)
            rec.iq_blob_path = blob_rel
            writer.writerow([
                rec.window_idx, _fmt(rec.timestamp_s), rec.tag_id, rec.antenna,
                _fmt(rec.i_mean), _fmt(rec.q_mean), blob_rel,
                _fmt(rec.rss_dbm), _fmt(rec.phase_rad),
                "true" if rec.detected else "false",
            ])
    if log.truth is not None:
        truth_deg = {tag: [float(np.degrees(v)) for v in series]
                     for tag, series in log.truth.items()}
        (out_dir / "truth.json").write_text(json.dumps(truth_deg, sort_keys=True, indent=1))
    return csv_path


def read_reader_log(path: str | Path) -> ReaderLog:
    """Parse a reader log directory (or csv path), loading IQ blobs eagerly.

    A malformed row -- bad antenna, duplicate (window, tag, antenna), a
    detected read without a readable blob -- raises ValueError naming the
    CSV file and row.
    """
    path = Path(path)
    if path.is_dir():
        base, csv_path = path, path / "readerlog.csv"
    else:
        base, csv_path = path.parent, path
    records = []
    seen: set[tuple[int, str, int]] = set()
    with open(csv_path, newline="") as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected reader log header: {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        window_idx, antenna = int(row[0]), int(row[3])
        if antenna not in (1, 2):
            raise ValueError(f"{csv_path} row {lineno}: antenna must be 1 or 2, got {antenna}")
        key = (window_idx, row[2], antenna)
        if key in seen:
            raise ValueError(f"{csv_path} row {lineno}: duplicate row for window {window_idx}, "
                             f"tag {row[2]}, antenna {antenna}")
        seen.add(key)
        detected = row[9].strip().lower() == "true"
        iq = None
        if detected:
            if not row[6]:
                raise ValueError(f"{csv_path} row {lineno}: detected read has no iq_blob_path")
            try:
                iq = read_blob(base / row[6])
            except ValueError as e:
                raise ValueError(f"{csv_path} row {lineno}: {e}") from None
        records.append(ReadRecord(
            window_idx=window_idx, timestamp_s=float(row[1]), tag_id=row[2],
            antenna=antenna, iq=iq,
            rss_dbm=float(row[7]) if row[7] else math.nan,
            phase_rad=float(row[8]) if row[8] else math.nan,
            detected=detected, iq_blob_path=row[6],
        ))
    truth = None
    truth_path = base / "truth.json"
    if truth_path.exists():
        truth_deg = json.loads(truth_path.read_text())
        truth = {tag: np.radians(np.asarray(v, dtype=float)) for tag, v in truth_deg.items()}
    return ReaderLog(records=records, truth=truth).validate()
