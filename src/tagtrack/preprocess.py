"""Reader log preprocessing: per-tag splitting, single-antenna discard, windowing.

A tag is sometimes read by only one of the two antennas during an acquisition
window; such windows are discarded entirely because a one-row snapshot matrix
cannot support a direction estimate.  Each retained acquisition window, as
numbered by the log's ``window_idx``, is one snapshot window for per-window
AoA estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .readerlog import ReaderLog, ReadRecord


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

