"""Reader log wire format.

One CSV row per window per antenna per tag:

    window_idx,timestamp_s,tag_id,antenna,i_mean,q_mean,iq_blob_path,rss_dbm,phase_rad,detected

IQ blobs are little-endian float64 interleaved I/Q.  ``iq_blob_path`` names
a blob file relative to the CSV; ``<file>@<start>:<count>`` takes ``count``
float64 values from value ``start`` on, and a bare path takes the whole
file.  ``write_reader_log`` packs every row's IQ into one ``iq.bin``; per-row
exports from real readers name one bare file per row.  ``detected`` is
``true``/``false`` in any case, or ``1``/``0``.  A ground-truth sidecar JSON
``{tag_id: [theta_1..theta_T]}`` (degrees, null for none) may accompany
synthetic logs.  Lines starting with ``#`` carry run metadata and are
skipped on parse.  A log's window indices may span at most 16 windows
(``_SPAN_PER_WINDOW``) per distinct index.

In memory a log is columnar (``ReaderLog``): one array per field and one
float64 IQ buffer that every row takes a span of.  The private helpers
below own the text conventions every artifact shares; cli and artifacts import them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from itertools import islice, repeat
from operator import itemgetter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_HEADER = ["window_idx", "timestamp_s", "tag_id", "antenna", "i_mean", "q_mean",
              "iq_blob_path", "rss_dbm", "phase_rad", "detected"]
IQ_FILE = "iq.bin"
_SPAN = re.compile(r"[0-9]+:[0-9]+")
_DETECTED = {"true": True, "1": True, "false": False, "0": False}
_TRUTH_TYPES = {int, float, type(None)}   # the types json gives numbers and null
_INT64 = 2 ** 63
_SPAN_CLIP = 2 ** 61   # bigger span numbers run past any file; clipping keeps their parity
_CHUNK_ROWS = 1024     # CSV rows held as lists at a time while they become columns
_SPAN_PER_WINDOW = 16  # window slots a log may span per distinct window index
# the largest IQ magnitude read: a window's covariance entries stay below 2**501 and the
# squares that its eigendecomposition sums below 2**1005, short of float max (2**1024)
_IQ_LIMIT = 2.0 ** 250


@dataclass
class ReaderLog:
    """A reader log as columns: row i is one antenna's reads of one tag in one window.

    Rows come in time order.  Row i belongs to tag ``tag_ids[tag[i]]`` and
    antenna ``antenna[i]`` (1 or 2); its IQ is the float64 I/Q values
    ``iq[start[i]:start[i] + count[i]]``.  An undetected row has count 0 and
    usually NaN RSS and phase.  ``truth`` holds per-tag angles (radians),
    entry t for window ``first_window + t``.
    """

    window_idx: np.ndarray      # int64
    timestamp_s: np.ndarray     # float64
    tag: np.ndarray             # intp, index into tag_ids
    antenna: np.ndarray         # int64
    rss_dbm: np.ndarray         # float64
    phase_rad: np.ndarray       # float64
    detected: np.ndarray        # bool
    start: np.ndarray           # int64, float64 values into iq
    count: np.ndarray           # int64, float64 values
    iq: np.ndarray              # float64 interleaved I/Q
    tag_ids: list[str]          # in order of first appearance
    truth: dict[str, np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.window_idx.size

    @property
    def first_window(self) -> int:
        "Smallest acquisition window index: window 0 of the channels and the truth."
        return int(self.window_idx.min()) if len(self) else 0

    def validate(self):
        "Check an in-memory log: antennas 1 or 2, ordered timestamps, no repeated rows."
        t = self.timestamp_s
        bad_antenna = (self.antenna != 1) & (self.antenna != 2)
        bad_time = ~np.isfinite(t)
        bad_time[1:] |= t[1:] < t[:-1]
        bad = bad_antenna | bad_time | _repeated(self.window_idx, self.tag, self.antenna)
        if bad.any():
            i = int(bad.argmax())
            if bad_antenna[i]:
                raise ValueError(f"record {i}: antenna must be 1 or 2, got {self.antenna[i]}")
            if bad_time[i]:
                raise ValueError(f"record {i}: timestamps must be finite and non-decreasing")
            raise ValueError(f"record {i}: repeats window {self.window_idx[i]}, tag "
                             f"{self.tag_ids[self.tag[i]]}, antenna {self.antenna[i]}")
        return self


def _repeated(*keys: np.ndarray) -> np.ndarray:
    "Rows whose keys equal those of an earlier row."
    order = np.lexsort(keys)
    same = np.ones(max(order.size - 1, 0), bool)
    for key in keys:
        same &= key[order[1:]] == key[order[:-1]]
    out = np.zeros(order.size, bool)
    out[order[1:]] = same
    return out


def _fmt(values):
    "The CSV cell of each float: its repr, '' for NaN, made as the rows are written."
    return ("" if x != x else repr(x) for x in values)


def _meta_line(meta: dict) -> str:
    "The ``# key=value,...`` comment line of run metadata, keys sorted."
    return "# " + ",".join(f"{k}={v}" for k, v in sorted(meta.items())) + "\n"


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=1)`` of str-keyed dicts, lists and leaves.

    With an indent json encodes in pure Python.  Here only dicts and lists
    that hold containers are walked in Python; a list of leaves is one call
    of json's C encoder, whose item separator carries the indent.
    """
    inner = indent + " "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())) \
            + indent + "}"
    if not isinstance(value, (list, tuple)) or not value:
        return json.dumps(value)
    if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, value))):
        return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in value) + indent + "]"
    return "[" + inner + json.dumps(value, separators=("," + inner, ": "))[1:-1] + indent + "]"


def _load_json(path: Path):
    "The JSON value of a file; invalid JSON raises ValueError naming the file."
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not JSON: {e}") from None


def _csv_lines(path: Path) -> list[str]:
    "The lines of a CSV file, read with ``newline=''``, less the ``#`` comment lines."
    with open(path, newline="") as fh:
        return [ln for ln in fh if not ln.startswith("#")]


def read_blob(path: Path) -> np.ndarray:
    "All float64 values of a blob file, read through one open()."
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % 8:
            raise ValueError(f"blob {path} is {size} bytes, not a whole number of float64 values")
        return np.fromfile(fh, dtype="<f8")


_MEAN_ROWS = 256   # spans stacked per sum: bounds the copy that _iq_means makes


def _iq_means(iq: np.ndarray, start: np.ndarray, count: np.ndarray):
    """I and Q means of each span of iq, with the bits of ``np.mean`` on its IQ.

    Spans of one length are gathered ``_MEAN_ROWS`` at a time and summed
    along axis 1, which is numpy's pairwise sum of each row, as the sum of a
    1-D array is.
    """
    i_mean, q_mean = np.empty(start.size), np.empty(start.size)
    for n in sorted(set(count.tolist())):
        ks = np.flatnonzero(count == n)
        for b in range(0, ks.size, _MEAN_ROWS):
            part = ks[b:b + _MEAN_ROWS]
            m = iq[start[part, None] + np.arange(n)].view(complex)
            i_mean[part] = m.real.sum(axis=1) / (n // 2)
            q_mean[part] = m.imag.sum(axis=1) / (n // 2)
    return i_mean, q_mean


def write_reader_log(log: ReaderLog, out_dir: str | Path) -> Path:
    """Write readerlog.csv, the packed iq.bin and the truth sidecar under out_dir.

    A log without IQ writes no iq.bin.  A detected record without IQ
    samples, or without a finite RSS and phase, which the reader would
    reject, raises ValueError naming the record before anything is written.
    """
    det = np.flatnonzero(log.detected)
    start, count = log.start[det], log.count[det]
    levels = np.isfinite(log.rss_dbm[det]) & np.isfinite(log.phase_rad[det])
    bad = det[(count == 0) | ~levels]
    if bad.size:
        i = int(bad[0])
        where = (f"record {i} (window {log.window_idx[i]}, tag {log.tag_ids[log.tag[i]]}, "
                 f"antenna {log.antenna[i]})")
        if not log.count[i]:
            raise ValueError(f"{where} is detected but has no IQ samples")
        raise ValueError(f"{where} is detected but has rss_dbm {float(log.rss_dbm[i])!r} and "
                         f"phase_rad {float(log.phase_rad[i])!r}; both must be finite")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    i_mean, q_mean = np.full(len(log), np.nan), np.full(len(log), np.nan)
    i_mean[det], q_mean[det] = _iq_means(log.iq, start, count)
    spans = (f"{IQ_FILE}@{at}:{n}" for at, n in zip((np.cumsum(count) - count).tolist(),
                                                     count.tolist()))
    detected = log.detected.tolist()
    csv_path = out_dir / "readerlog.csv"
    with open(csv_path, "w", newline="") as fh:
        if log.meta:
            fh.write(_meta_line(log.meta))
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(log.window_idx.tolist(), _fmt(log.timestamp_s.tolist()),
                             map(log.tag_ids.__getitem__, log.tag.tolist()),
                             log.antenna.tolist(), _fmt(i_mean.tolist()), _fmt(q_mean.tolist()),
                             (next(spans) if d else "" for d in detected),
                             _fmt(log.rss_dbm.tolist()), _fmt(log.phase_rad.tolist()),
                             ("true" if d else "false" for d in detected)))
    if det.size:
        with open(out_dir / IQ_FILE, "wb") as iq_fh:
            for s, n in zip(start.tolist(), count.tolist()):
                iq_fh.write(log.iq[s:s + n])
    else:
        (out_dir / IQ_FILE).unlink(missing_ok=True)
    if log.truth is not None:
        truth_deg = {tag: [float(np.degrees(v)) for v in series]
                     for tag, series in log.truth.items()}
        (out_dir / "truth.json").write_text(_json_text(truth_deg))
    return csv_path


# --- reading ------------------------------------------------------------------
# The reader parses whole columns.  Each check of a field runs on the whole
# column and notes the first row it flags, with that row's message.  The
# error reported is that of the first row any check flags, and of the first
# check flagging it in the order a row's fields are checked: a check that
# flags that row flags no earlier one.  A field that fails to parse takes a
# placeholder, which can only flag rows at or after its own.  The text
# columns are dropped before the blobs are read, to keep the peak memory of
# a long log low.

def _check(checks: list, bad: np.ndarray, message):
    "Note the first row that bad flags, with message(row)."
    if bad.any():
        k = int(bad.argmax())
        checks.append((k, message(k)))


def _parsed(texts, kind, fill, checks: list) -> list:
    "kind(text) of each text; fill, and a check noting the first, where it raises ValueError."
    try:
        return list(map(kind, texts))
    except ValueError:
        pass
    values, error = [], None
    for k, text in enumerate(texts):
        try:
            values.append(kind(text))
        except ValueError as e:
            values.append(fill)
            error = error or (k, str(e))
    checks.append(error)
    return values


def _detected(text: str) -> bool:
    value = _DETECTED.get(text.strip().lower())
    if value is None:
        raise ValueError(f"detected {text!r} is not true, false, 1 or 0")
    return value


def _clipped(values: list[int]) -> np.ndarray:
    "Non-negative span numbers as int64, the ones past _SPAN_CLIP clipped with their parity."
    if values and max(values) >= _SPAN_CLIP:
        values = [v if v < _SPAN_CLIP else _SPAN_CLIP + v % 2 for v in values]
    return np.array(values, dtype=np.int64)


def _blob_spans(base: Path, refs: tuple[str, ...], used: np.ndarray, checks: list):
    """Start and count of each used row's IQ in one float64 buffer, and the buffer.

    Each blob file is read once, in order of first use, and checked as a
    whole for non-finite values and values past ``_IQ_LIMIT``; only the
    spans of a file that holds one are checked one by one, so a value no
    span covers does no harm.  Adds the blob checks of a row in order: a
    malformed path, an unreadable file, an odd count, a span past the end of
    its file, non-finite values, a value past ``_IQ_LIMIT``.
    """
    n = len(refs)
    rows = np.flatnonzero(used)
    paths = [refs[k] for k in rows.tolist()]
    head = paths[0].rpartition("@")[0] if paths else ""
    joined = "\n".join(paths)
    if paths and joined.count("\n") == len(paths) - 1 and \
            re.fullmatch(f"(?:{re.escape(head)}@[0-9]{{1,18}}:[0-9]{{1,18}}\n)*", joined + "\n"):
        # packed into one file, spans of at most 18 digits: one match, one parse
        names, spanned = [head] * len(paths), rows
        spans = np.fromstring(joined.replace(head + "@", "").replace("\n", ":"),
                              dtype=np.int64, sep=":")
    else:
        heads, ats, tails = list(zip(*[ref.rpartition("@") for ref in paths])) or [()] * 3
        names = [h if a else t for h, a, t in zip(heads, ats, tails)]
        spanned = rows[np.array(list(map(bool, ats)), dtype=bool)]
        texts = [t for a, t in zip(ats, tails) if a]
        malformed = [i for i, t in enumerate(texts) if not _SPAN.fullmatch(t)]
        if malformed:
            k = int(spanned[malformed[0]])
            checks.append((k, f"malformed iq_blob_path {refs[k]!r}: "
                              f"expected <file>@<start>:<count>"))
            for i in malformed:
                texts[i] = "0:0"
            bad = set(spanned[malformed].tolist())
            names = [None if k in bad else name for k, name in zip(rows.tolist(), names)]
        spans = _clipped(list(map(int, ":".join(texts).split(":"))) if texts else [])
    index, raws, errors = {}, [], {}
    for name in dict.fromkeys(names):
        if name is None:
            continue
        try:
            raw = read_blob(base / name)
        except OSError as e:
            errors[name] = f"blob {base / name} cannot be read: {e.strerror}"
            continue
        except ValueError as e:
            errors[name] = str(e)
            continue
        index[name] = len(raws)
        raws.append(raw)
    if errors:
        checks.append(next((k, errors[name]) for k, name in zip(rows.tolist(), names)
                           if name in errors))
    sizes = np.array([raw.size for raw in raws] + [0], dtype=np.int64)   # file -1: no file
    offsets = np.append(np.cumsum(sizes[:-1]) - sizes[:-1], 0)
    file = np.full(n, -1)
    file[rows] = list(map(index.get, names, repeat(-1)))
    size = sizes[file]
    start, count = np.zeros(n, np.int64), size.copy()
    start[spanned], count[spanned] = spans[0::2], spans[1::2]
    count[~used] = 0
    odd = count % 2 == 1
    # a spanned count may be clipped: the message gives the one written
    _check(checks, odd, lambda k: f"blob {base / refs[k]} holds an odd number of floats "
           f"({int(refs[k].rpartition(':')[2]) if k in spanned else count[k]})")
    past = start + count > size
    _check(checks, past, lambda k: f"blob {base / refs[k]} runs past the end of its file "
                                   f"({size[k]} floats)")
    nonfinite, huge = np.zeros(n, bool), np.zeros(n, bool)
    for i, raw in enumerate(raws):
        if raw.size and not -_IQ_LIMIT <= raw.min() <= raw.max() <= _IQ_LIMIT:  # or a NaN
            sel = np.flatnonzero((file == i) & ~odd & ~past)
            for flags, bad in ((nonfinite, ~np.isfinite(raw)), (huge, np.abs(raw) > _IQ_LIMIT)):
                cum = np.concatenate([[0], np.cumsum(bad)])
                flags[sel] = cum[start[sel] + count[sel]] > cum[start[sel]]
    _check(checks, nonfinite, lambda k: f"blob {base / refs[k]} holds non-finite IQ values")
    _check(checks, huge, lambda k: f"blob {base / refs[k]} holds an IQ value above 2**250 "
                                   f"in magnitude")
    iq = raws[0] if len(raws) == 1 else np.concatenate(raws) if raws else np.empty(0)
    return start + offsets[file], count, iq


def _csv_rows(lines: list[str]):
    """The rows ``csv.reader`` makes of lines read with ``newline=""``, as an iterator.

    Without quotes, NULs or fields past csv's size limit, a line's row is
    the line without its end split at commas, which is twice as fast.
    """
    text = "".join(lines)
    if '"' in text or "\0" in text or max(map(len, lines), default=0) > csv.field_size_limit():
        return csv.reader(lines)
    return (row if row != [""] else [] for row in (ln.rstrip("\r\n").split(",") for ln in lines))


def _csv_columns(rows, width: int):
    """The columns of rows, their CSV row numbers, and the first row not ``width`` long.

    Rows are taken ``_CHUNK_ROWS`` at a time, so that only a chunk of them
    is held as lists; the i_mean and q_mean columns, derived and never read,
    are dropped.  Blank rows are skipped and keep their numbers; reading
    stops at a row of another width, returned as (row number, its width).
    """
    cols: list[list[str]] = [[] for _ in range(width)]
    lineno: list[int] = []
    short = None
    first = 2
    while short is None and (chunk := list(islice(rows, _CHUNK_ROWS))):
        numbers = range(first, first + len(chunk))
        first += len(chunk)
        if [] in chunk:
            numbers = [k for k, row in zip(numbers, chunk) if row]
            chunk = [row for row in chunk if row]
        if set(map(len, chunk)) - {width}:
            cut = next(i for i, row in enumerate(chunk) if len(row) != width)
            short = numbers[cut], len(chunk[cut])
            chunk, numbers = chunk[:cut], numbers[:cut]
        lineno.extend(numbers)
        for k, values in enumerate(zip(*chunk)):
            if k not in (4, 5):
                cols[k].extend(values)
    return cols, lineno, short


def _read_truth(path: Path) -> dict[str, np.ndarray] | None:
    "The truth sidecar in radians, or None; a malformed one raises ValueError naming it."
    if not path.exists():
        return None
    truth_deg = _load_json(path)
    if not isinstance(truth_deg, dict):
        raise ValueError(f"{path} is not an object of per-tag angle lists")
    for tag, series in truth_deg.items():
        if not (isinstance(series, list) and set(map(type, series)) <= _TRUTH_TYPES):
            raise ValueError(f"{path} tag {tag!r}: not a list of numbers or nulls")
    return {tag: np.radians(np.asarray(v, dtype=float)) for tag, v in truth_deg.items()}


def read_reader_log(path: str | Path) -> ReaderLog:
    """Parse a reader log directory (or csv path), loading IQ blobs eagerly.

    Each file is opened once.  A wrong header raises ValueError naming the
    CSV file.  A malformed row -- wrong column count, a non-numeric field, a
    ``window_idx`` outside 64 bits, a non-finite timestamp or one earlier
    than the row before, bad antenna, duplicate (window, tag, antenna), a
    ``detected`` other than true/false/1/0, a detected read without a finite
    RSS and phase or without a readable blob span -- raises ValueError
    naming the CSV file and row.  So does a log that has no such row but
    whose window indices span more than ``_SPAN_PER_WINDOW`` windows per
    distinct index: the later of the first rows holding the smallest and
    the largest index is named.  A malformed truth.json raises ValueError
    naming it.
    """
    path = Path(path)
    base, csv_path = (path, path / "readerlog.csv") if path.is_dir() else (path.parent, path)
    rows = _csv_rows(_csv_lines(csv_path))
    header = next(rows, None)
    if header != CSV_HEADER:
        raise ValueError(f"{csv_path}: unexpected reader log header: {header}")
    cols, lineno, short = _csv_columns(rows, len(CSV_HEADER))
    n = len(cols[0])
    checks: list = []
    window = _parsed(cols[0], int, 0, checks)
    if window and not -_INT64 <= min(window) <= max(window) < _INT64:
        checks.append(next((k, f"window_idx {w} is outside 64 bits")
                           for k, w in enumerate(window) if not -_INT64 <= w < _INT64))
        window = [w if -_INT64 <= w < _INT64 else 0 for w in window]
    window = np.array(window, dtype=np.int64)
    antenna = _parsed(cols[3], int, 1, checks)
    if not set(antenna) <= {1, 2}:
        checks.append(next((k, f"antenna must be 1 or 2, got {a}")
                           for k, a in enumerate(antenna) if a not in (1, 2)))
        antenna = [a if a in (1, 2) else 0 for a in antenna]
    antenna = np.array(antenna, dtype=np.int64)
    tag_ids = list(dict.fromkeys(cols[2]))
    tag = np.array(list(map({t: i for i, t in enumerate(tag_ids)}.__getitem__, cols[2])),
                   dtype=np.intp)
    _check(checks, _repeated(window, tag, antenna),
           lambda k: f"duplicate row for window {window[k]}, tag {cols[2][k]}, "
                     f"antenna {antenna[k]}")
    timestamp = np.array(_parsed(cols[1], float, math.nan, checks))
    _check(checks, ~np.isfinite(timestamp), lambda k: f"timestamp_s {cols[1][k]!r} is not finite")
    earlier = np.zeros(n, bool)
    earlier[1:] = timestamp[1:] < timestamp[:-1]
    _check(checks, earlier, lambda k: f"timestamp_s {cols[1][k]} is earlier than the row before "
                                      f"({float(timestamp[k - 1])!r}); rows must be in time order")
    # an empty level is NaN, and float("nan") is too
    rss, phase = (np.array(_parsed([t or "nan" for t in c], float, math.nan, checks))
                  for c in (cols[7], cols[8]))
    detected = np.array(_parsed(cols[9], _DETECTED.__getitem__ if set(cols[9]) <= _DETECTED.keys()
                                else _detected, False, checks), dtype=bool)
    no_path = np.array([not ref for ref in cols[6]], dtype=bool)
    _check(checks, detected & no_path, lambda k: "detected read has no iq_blob_path")
    _check(checks, detected & ~(np.isfinite(rss) & np.isfinite(phase)),
           lambda k: f"detected read has rss_dbm {cols[7][k]!r} and phase_rad {cols[8][k]!r}; "
                     f"both must be finite")
    refs = cols[6]
    del cols
    start, count, iq = _blob_spans(base, refs, detected & ~no_path, checks)
    if checks:
        k, message = min(checks, key=itemgetter(0))
        raise ValueError(f"{csv_path} row {lineno[k]}: {message}")
    if short is not None:
        raise ValueError(f"{csv_path} row {short[0]}: has {short[1]} columns, "
                         f"expected {len(CSV_HEADER)}")
    distinct = len(set(window.tolist()))
    if n and (gap := int(window.max()) - int(window.min())) >= _SPAN_PER_WINDOW * distinct:
        other, k = sorted((int(window.argmin()), int(window.argmax())))
        raise ValueError(f"{csv_path} row {lineno[k]}: window_idx {window[k]} is {gap} windows "
                         f"from window_idx {window[other]} at row {lineno[other]}; a log of "
                         f"{distinct} distinct windows may span at most "
                         f"{_SPAN_PER_WINDOW * distinct} windows")
    return ReaderLog(window_idx=window, timestamp_s=timestamp, tag=tag, antenna=antenna,
                     rss_dbm=rss, phase_rad=phase, detected=detected, start=start, count=count,
                     iq=iq, tag_ids=tag_ids, truth=_read_truth(base / "truth.json"))
