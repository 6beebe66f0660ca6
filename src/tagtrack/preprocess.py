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

from .readerlog import ReaderLog


@dataclass
class IQWindow:
    """One tag's 2 x n complex snapshot matrix over one acquisition window.

    ``window_segments`` builds every window.  Row m holds antenna m's
    snapshots, and ``window_idx`` is the acquisition window's index in the
    reader log.  ``covariance`` is the 2x2 snapshot covariance Y Y^H / n,
    a view of the product ``window_segments`` takes over the window's stack;
    ``music.estimate_aoa`` takes the angle from it.
    """

    tag_id: str
    window_idx: int
    matrix: np.ndarray
    midpoint_time_s: float
    covariance: np.ndarray


def _snapshot_covariance(y: np.ndarray) -> np.ndarray:
    """Y Y^H / n of a 2 x n matrix, or of each matrix of a (k, 2, n) stack.

    A stack's product gives each matrix the bits of its own.  A NaN or
    infinite value, or one whose square overflows, leaves a non-finite entry
    without numpy's invalid-value or overflow warning, as ``estimate_aoa``
    rejects such a window by its R[0, 0], R[1, 1] and R[1, 0].
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return y @ y.conj().swapaxes(-1, -2) / y.shape[-1]


# windows gathered per stack: small stacks keep to the heap, as per-window copies
# would, rather than mapping and unmapping megabytes per log
_STACK_WINDOWS = 64
ROW_FIELDS = ("window_idx", "timestamp_s", "antenna", "detected", "start", "count")
_ROW_DTYPE = np.dtype([("window_idx", np.int64), ("timestamp_s", float), ("antenna", np.int64),
                       ("detected", bool), ("start", np.int64), ("count", np.int64)])


def split_by_tag(log: ReaderLog) -> dict[str, np.recarray]:
    "Each tag's rows, in time order, as a record array of the ROW_FIELDS columns."
    log.validate()
    rows = np.empty(len(log), dtype=_ROW_DTYPE)
    for name in ROW_FIELDS:
        rows[name] = getattr(log, name)
    return {tag: rows[log.tag == i].view(np.recarray) for i, tag in enumerate(log.tag_ids)}


def window_segments(rows: np.recarray, iq: np.ndarray, tag_id: str) -> list[IQWindow]:
    """One tag's snapshot windows, one per acquisition window read on both antennas.

    ``rows`` are the tag's rows from ``split_by_tag`` and iq is their log's
    IQ buffer.  Each ``window_idx``'s antenna-1 and antenna-2 rows become the
    two rows of a 2 x n matrix, trimmed to the shorter one; a window with
    fewer than two columns is skipped, and so is a window read on one
    antenna only.  Windows keep the log's ``window_idx``, come in index order, and
    take the mean of their two rows' timestamps as their time.  A window's
    matrix is a row of a C-contiguous (k, 2, n) stack of up to
    ``_STACK_WINDOWS`` windows of its width, gathered in one copy, and its
    ``covariance`` a row of the (k, 2, 2) covariances of that stack, taken in
    one product.
    """
    d = rows.view(np.ndarray)   # plain field access: record-array attributes are slow
    detected = d["detected"]
    # the detected rows in (window, antenna) order
    d = d[np.lexsort((d["antenna"], d["window_idx"], ~detected))[:np.count_nonzero(detected)]]
    window, start, count, time = (d[name] for name in ("window_idx", "start", "count",
                                                        "timestamp_s"))
    # antenna 1 at pair[:, 0], antenna 2 at pair[:, 1]
    pair = np.flatnonzero(window[1:] == window[:-1])[:, None] + np.arange(2)
    cols = count[pair].min(axis=1) // 2
    keep = cols >= 2
    if not keep.all():
        pair, cols = pair[keep], cols[keep]
    starts = start[pair]
    blocks: list = [None] * len(pair)   # (matrix, covariance) per window
    for n in sorted(set(cols.tolist())):   # np.unique would import numpy.ma
        sel = np.flatnonzero(cols == n)
        for b in range(0, sel.size, _STACK_WINDOWS):
            part = sel[b:b + _STACK_WINDOWS]
            stack = iq[starts[part, :, None] + np.arange(2 * n)].view(complex)
            covs = _snapshot_covariance(stack)
            for k, matrix, cov in zip(part.tolist(), stack, covs):
                blocks[k] = matrix, cov
    midpoints = 0.5 * (time[pair[:, 0]] + time[pair[:, 1]])
    return [IQWindow(tag_id, idx, matrix, t, cov) for idx, (matrix, cov), t
            in zip(window[pair[:, 0]].tolist(), blocks, midpoints.tolist())]


def windows_by_tag(log: ReaderLog) -> dict[str, list[IQWindow]]:
    "Split and window a reader log per tag; tags without a window are omitted."
    out = {}
    for tag, rows in split_by_tag(log).items():
        windows = window_segments(rows, log.iq, tag)
        if windows:
            out[tag] = windows
    return out
