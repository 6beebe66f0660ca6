"""Reader log preprocessing: per-tag splitting, single-antenna discard, windowing.

A tag is sometimes read by only one of the two antennas during an acquisition
window; such windows are discarded entirely because a one-row snapshot matrix
cannot support a direction estimate.  The retained per-tag sample stream is
then cut into non-overlapping windows for per-window AoA estimation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .readerlog import ReaderLog, ReadRecord, read_blob, write_blob


@dataclass
class IQWindow:
    """One tag's 2 x n complex snapshot matrix over one time window.

    Row m holds antenna m's snapshots.  A missing antenna row is NaN-filled
    and clears the ``complete`` flag.
    """

    tag_id: str
    window_idx: int
    matrix: np.ndarray
    midpoint_time_s: float
    complete: bool

    @property
    def num_snapshots(self) -> int:
        return self.matrix.shape[1]


@dataclass
class SampleStream:
    """Time-ordered individual IQ samples of one tag, tagged with antenna."""

    times: np.ndarray
    antennas: np.ndarray
    values: np.ndarray

    def __len__(self):
        return self.times.size


def split_by_tag(log: ReaderLog) -> dict[str, list[ReadRecord]]:
    "Partition records per tag, preserving time order."
    log.validate()
    out: dict[str, list[ReadRecord]] = {}
    for rec in log.records:
        out.setdefault(rec.tag_id, []).append(rec)
    return out


def prune_single_antenna_segments(records: list[ReadRecord]) -> list[ReadRecord]:
    """Drop acquisition windows detected on fewer than two antennas.

    Keeps exactly the detected rows whose window has detections from both
    antennas; idempotent.
    """
    detected_antennas: dict[int, set[int]] = {}
    for rec in records:
        if rec.detected:
            detected_antennas.setdefault(rec.window_idx, set()).add(rec.antenna)
    return [rec for rec in records
            if rec.detected and detected_antennas.get(rec.window_idx) == {1, 2}]


def flatten_records(records: list[ReadRecord]) -> SampleStream:
    """Expand per-window IQ blobs into a single interleaved sample stream.

    Sample times are spread uniformly over each acquisition window span
    (inferred from record timestamps), antenna-2 samples offset half a slot
    so the stream alternates antennas the way the switching reader samples.
    """
    recs = sorted((r for r in records if r.detected and r.iq is not None),
                  key=lambda r: (r.timestamp_s, r.antenna))
    if not recs:
        return SampleStream(np.empty(0), np.empty(0, dtype=np.int8), np.empty(0, dtype=complex))
    starts = sorted({r.timestamp_s for r in recs})
    if len(starts) > 1:
        span = float(np.median(np.diff(starts)))
    else:
        span = 1.0
    times, ants, vals = [], [], []
    for rec in recs:
        n = rec.iq.size
        offset = 0.0 if rec.antenna == 1 else 0.5
        times.append(rec.timestamp_s + (np.arange(n) + offset) * (span / max(n, 1)))
        ants.append(np.full(n, rec.antenna, dtype=np.int8))
        vals.append(rec.iq)
    times = np.concatenate(times)
    order = np.argsort(times, kind="stable")
    return SampleStream(times[order], np.concatenate(ants)[order], np.concatenate(vals)[order])


def _split_runs(times: np.ndarray) -> list[slice]:
    "Split sample indices where the time gap exceeds 3x the median spacing."
    if times.size <= 1:
        return [slice(0, times.size)] if times.size else []
    dts = np.diff(times)
    positive = dts[dts > 0]
    if positive.size == 0:
        return [slice(0, times.size)]
    cut = 3.0 * float(np.median(positive))
    breaks = np.nonzero(dts > cut)[0] + 1
    edges = [0, *breaks.tolist(), times.size]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def window_segments(stream: SampleStream | list[ReadRecord], samples_per_window: int,
                    tag_id: str = "") -> list[IQWindow]:
    """Cut a per-tag sample stream into non-overlapping snapshot windows.

    ``samples_per_window`` counts both antennas' samples.  Windows tile each
    contiguous run of the stream; a trailing remainder shorter than half a
    window (or yielding fewer than two snapshot pairs) is dropped.  Row
    lengths are equalized to the smaller antenna count within the window.
    """
    if samples_per_window < 4 or samples_per_window % 2:
        raise ValueError("samples_per_window must be even and >= 4")
    if isinstance(stream, list):
        if stream and not tag_id:
            tag_id = stream[0].tag_id
        stream = flatten_records(stream)
    windows: list[IQWindow] = []
    half = samples_per_window / 2.0
    for run in _split_runs(stream.times):
        times = stream.times[run]
        ants = stream.antennas[run]
        vals = stream.values[run]
        n = times.size
        starts = list(range(0, (n // samples_per_window) * samples_per_window, samples_per_window))
        rem_start = len(starts) * samples_per_window
        if n - rem_start > half and n - rem_start >= 4:
            starts.append(rem_start)
        for s in starts:
            sl = slice(s, min(s + samples_per_window, n))
            row1 = vals[sl][ants[sl] == 1]
            row2 = vals[sl][ants[sl] == 2]
            cols = min(row1.size, row2.size)
            if cols < 2:
                continue
            matrix = np.vstack([row1[:cols], row2[:cols]])
            windows.append(IQWindow(
                tag_id=tag_id, window_idx=len(windows), matrix=matrix,
                midpoint_time_s=float(np.mean(times[sl])), complete=True,
            ))
    return windows


def windows_by_tag(log: ReaderLog, samples_per_window: int | None = None
                   ) -> dict[str, list[IQWindow]]:
    """Split, prune and window a reader log per tag.

    ``samples_per_window`` defaults to the tag's acquisition window size
    (twice its longest row).  Tags with no two-antenna window are omitted.
    """
    out = {}
    for tag, records in split_by_tag(log).items():
        pruned = prune_single_antenna_segments(records)
        if pruned:
            size = samples_per_window
            if size is None:
                size = 2 * max(r.iq.size for r in pruned)
            out[tag] = window_segments(pruned, size, tag_id=tag)
    return out


def acquisition_windows(midpoints_s, t0_s: float, window_s: float) -> np.ndarray:
    "Index of the acquisition window each midpoint falls in, on a grid starting at t0_s."
    return np.rint((np.asarray(midpoints_s, dtype=float) - t0_s) / window_s - 0.5).astype(int)


def measurement_slots(windows: list[IQWindow]) -> tuple[list[int], float]:
    """Place windows on an integer measurement grid from their midpoints.

    Returns per-window slot indices (gaps from pruned windows become skipped
    slots) and the mean midpoint spacing per slot, the tracker's dt.
    """
    if not windows:
        return [], 0.0
    mids = np.array([w.midpoint_time_s for w in windows])
    if mids.size == 1:
        return [0], 1.0
    diffs = np.diff(mids)
    dt0 = float(np.median(diffs))
    if dt0 <= 0:
        return list(range(mids.size)), 1.0
    slots = [0]
    for d in diffs:
        slots.append(slots[-1] + max(1, int(round(d / dt0))))
    dt = float((mids[-1] - mids[0]) / slots[-1]) if slots[-1] > 0 else dt0
    return slots, dt


def write_windows(windows_by_tag: dict[str, list[IQWindow]], out_dir: str | Path,
                  meta: dict | None = None) -> Path:
    "Write windowed IQ: one blob per window plus a JSON index."
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index: dict = {"meta": meta or {}, "tags": {}}
    for tag, windows in windows_by_tag.items():
        entries = []
        for w in windows:
            blob = f"win_{tag}_{w.window_idx:05d}.bin"
            write_blob(out_dir / blob, w.matrix.reshape(-1))
            entries.append({
                "window_idx": w.window_idx,
                "midpoint_s": w.midpoint_time_s,
                "complete": w.complete,
                "cols": int(w.matrix.shape[1]),
                "blob": blob,
            })
        index["tags"][tag] = entries
    (out_dir / "windows.json").write_text(json.dumps(index, sort_keys=True, indent=1))
    return out_dir / "windows.json"


def read_windows(path: str | Path) -> dict[str, list[IQWindow]]:
    "Read a windowed IQ index written by write_windows."
    path = Path(path)
    if path.is_dir():
        path = path / "windows.json"
    index = json.loads(path.read_text())
    base = path.parent
    out: dict[str, list[IQWindow]] = {}
    for tag, entries in index["tags"].items():
        windows = []
        for e in entries:
            flat = read_blob(base / e["blob"])
            windows.append(IQWindow(
                tag_id=tag, window_idx=int(e["window_idx"]),
                matrix=flat.reshape(2, int(e["cols"])),
                midpoint_time_s=float(e["midpoint_s"]), complete=bool(e["complete"]),
            ))
        out[tag] = windows
    return out
