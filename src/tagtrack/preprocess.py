"""Reader log preprocessing: per-tag splitting, single-antenna discard, windowing.

A tag is sometimes read by only one of the two antennas during an acquisition
window; such windows are discarded entirely because a one-row snapshot matrix
cannot support a direction estimate.  Each retained acquisition window, as
numbered by the log's ``window_idx``, is one snapshot window for per-window
AoA estimation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .readerlog import ReaderLog, ReadRecord, blob_iq, read_blob, write_blob

WINDOWS_FILE = "windows.bin"


@dataclass
class IQWindow:
    """One tag's 2 x n complex snapshot matrix over one acquisition window.

    Row m holds antenna m's snapshots.  A missing antenna row is NaN-filled
    and clears the ``complete`` flag.  ``window_idx`` is the acquisition
    window's index in the reader log.
    """

    tag_id: str
    window_idx: int
    matrix: np.ndarray
    midpoint_time_s: float
    complete: bool

    @property
    def num_snapshots(self) -> int:
        return self.matrix.shape[1]


def split_by_tag(log: ReaderLog) -> dict[str, list[ReadRecord]]:
    "Partition records per tag, preserving time order."
    log.validate()
    out: dict[str, list[ReadRecord]] = {}
    for rec in log.records:
        out.setdefault(rec.tag_id, []).append(rec)
    return out


def window_segments(records: list[ReadRecord]) -> list[IQWindow]:
    """One tag's snapshot windows, one per acquisition window read on both antennas.

    Each ``window_idx``'s antenna-1 and antenna-2 rows become the two rows of
    a 2 x n matrix, trimmed to the shorter one; a window with fewer than two
    columns is skipped, and so is a window read on one antenna only.  Windows
    keep the log's ``window_idx``, come in index order, and take the mean of
    their two rows' timestamps as their time.
    """
    rows: dict[int, dict[int, ReadRecord]] = {}
    for rec in records:
        if rec.detected and rec.iq is not None:
            rows.setdefault(rec.window_idx, {})[rec.antenna] = rec
    windows: list[IQWindow] = []
    for idx, pair in sorted(rows.items()):
        if len(pair) < 2:
            continue
        a1, a2 = pair[1], pair[2]
        cols = min(a1.iq.size, a2.iq.size)
        if cols < 2:
            continue
        matrix = np.empty((2, cols), complex)
        matrix[0] = a1.iq[:cols]
        matrix[1] = a2.iq[:cols]
        windows.append(IQWindow(
            tag_id=a1.tag_id, window_idx=idx, matrix=matrix,
            midpoint_time_s=0.5 * (a1.timestamp_s + a2.timestamp_s), complete=True,
        ))
    return windows


def windows_by_tag(log: ReaderLog) -> dict[str, list[IQWindow]]:
    "Split and window a reader log per tag; tags without a window are omitted."
    out = {}
    for tag, records in split_by_tag(log).items():
        windows = window_segments(records)
        if windows:
            out[tag] = windows
    return out


def write_windows(windows_by_tag: dict[str, list[IQWindow]], out_dir: str | Path,
                  meta: dict | None = None) -> Path:
    """Write windowed IQ: every matrix packed into windows.bin plus a JSON index.

    An entry's ``offset`` is where its row-major 2 x cols matrix starts in
    windows.bin, in float64 values (4 x cols of them).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index: dict = {"meta": meta or {}, "tags": {}}
    offset = 0
    with open(out_dir / WINDOWS_FILE, "wb") as fh:
        for tag, windows in windows_by_tag.items():
            entries = []
            for w in windows:
                entries.append({
                    "window_idx": w.window_idx,
                    "midpoint_s": w.midpoint_time_s,
                    "complete": w.complete,
                    "cols": int(w.matrix.shape[1]),
                    "offset": offset,
                })
                offset += write_blob(fh, w.matrix)
            index["tags"][tag] = entries
    (out_dir / "windows.json").write_text(json.dumps(index, sort_keys=True, indent=1))
    return out_dir / "windows.json"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def read_windows(path: str | Path) -> dict[str, list[IQWindow]]:
    """Read a windowed IQ index written by write_windows.

    An entry that lacks a key, whose ``window_idx`` or ``offset`` is not an
    integer or whose ``cols`` is not an integer of at least 2, whose
    ``midpoint_s`` is not a finite number or whose ``complete`` is not a
    boolean, or whose span runs past the end of windows.bin or holds a
    non-finite value, raises ValueError naming the index, tag and window (by
    position, ``#<n>``, when its ``window_idx`` is unusable).
    """
    path = Path(path)
    if path.is_dir():
        path = path / "windows.json"
    try:
        index = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not JSON: {e}") from None
    if not isinstance(index, dict) or not isinstance(index.get("tags"), dict):
        raise ValueError(f"{path} has no 'tags' object")
    blob = path.parent / WINDOWS_FILE
    raw = read_blob(blob)
    finite = bool(np.isfinite(raw).all())
    out: dict[str, list[IQWindow]] = {}
    for tag, entries in index["tags"].items():
        if not isinstance(entries, list):
            raise ValueError(f"{path} tag {tag}: not a list of windows")
        windows = []
        for n, e in enumerate(entries):
            idx = e.get("window_idx") if isinstance(e, dict) else None
            where = f"{path} tag {tag} window {idx if _is_int(idx) else f'#{n}'}"
            if not isinstance(e, dict):
                raise ValueError(f"{where}: not an object")
            for key in ("window_idx", "midpoint_s", "complete", "cols", "offset"):
                if key not in e:
                    raise ValueError(f"{where}: no {key!r}")
            for key in ("window_idx", "offset", "cols"):
                if not _is_int(e[key]):
                    raise ValueError(f"{where}: {key} {e[key]!r} is not an integer")
            cols, mid = e["cols"], e["midpoint_s"]
            if cols < 2:
                raise ValueError(f"{where}: cols {cols} is under 2 snapshots")
            if not (isinstance(mid, (int, float)) and not isinstance(mid, bool)
                    and math.isfinite(mid)):
                raise ValueError(f"{where}: midpoint_s {mid!r} is not a finite number")
            if not isinstance(e["complete"], bool):
                raise ValueError(f"{where}: complete {e['complete']!r} is not a boolean")
            try:
                flat = blob_iq(raw, e["offset"], 4 * cols, raw_finite=finite)
            except ValueError as err:
                raise ValueError(f"{where}: blob {blob} {err}") from None
            windows.append(IQWindow(
                tag_id=tag, window_idx=idx, matrix=flat.reshape(2, cols),
                midpoint_time_s=float(mid), complete=e["complete"],
            ))
        out[tag] = windows
    return out
