"""Reader logs row by row: per-row records, and files edited by hand.

``ReadRecord`` is one row of a log as an object, the per-row form of the
columnar ``ReaderLog``; ``from_records`` and ``records`` convert between
the two.  The file helpers work on the CSV and the blob bytes with the csv
module alone, not through tagtrack, as a real reader export or a damaged
log would be made.  Rows are numbered as the parser's messages number them:
the header is row 1, comment lines are not counted.
"""

from __future__ import annotations

import csv
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from tagtrack.readerlog import CSV_HEADER, ReaderLog


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


def from_records(records: list[ReadRecord], truth: dict | None = None,
                 meta: dict | None = None) -> ReaderLog:
    "The columnar log of records; detected records' IQ is packed into one buffer in order."
    iqs = [np.asarray(r.iq, dtype=complex).view(float) if r.detected and r.iq is not None
           else np.empty(0) for r in records]
    count = np.array([a.size for a in iqs], dtype=np.int64)
    tag_ids = list(dict.fromkeys(r.tag_id for r in records))

    def column(name, dtype):
        return np.array([getattr(r, name) for r in records], dtype=dtype)

    return ReaderLog(window_idx=column("window_idx", np.int64),
                     timestamp_s=column("timestamp_s", float),
                     tag=np.array([tag_ids.index(r.tag_id) for r in records], dtype=np.intp),
                     antenna=column("antenna", np.int64), rss_dbm=column("rss_dbm", float),
                     phase_rad=column("phase_rad", float), detected=column("detected", bool),
                     start=np.cumsum(count) - count, count=count,
                     iq=np.concatenate([np.empty(0), *iqs]), tag_ids=tag_ids, truth=truth,
                     meta=meta or {})


def records(log: ReaderLog) -> list[ReadRecord]:
    "The rows of a columnar log as records; a detected row's IQ is a view of the log's buffer."
    return [ReadRecord(w, t, log.tag_ids[tag], a, log.iq[s:s + n].view(complex) if d else None,
                       rss, phase, d)
            for w, t, tag, a, rss, phase, d, s, n in zip(
                *(getattr(log, name).tolist() for name in (
                    "window_idx", "timestamp_s", "tag", "antenna", "rss_dbm", "phase_rad",
                    "detected", "start", "count")))]


def read_csv(log_dir: Path) -> tuple[list[str], list[list[str]]]:
    "Comment lines and CSV rows (header first) of a log's readerlog.csv."
    with open(log_dir / "readerlog.csv", newline="") as fh:
        lines = fh.readlines()
    return ([ln for ln in lines if ln.startswith("#")],
            list(csv.reader(ln for ln in lines if not ln.startswith("#"))))


def write_csv(log_dir: Path, comments: list[str], rows: list[list[str]]):
    with open(log_dir / "readerlog.csv", "w", newline="") as fh:
        fh.writelines(comments)
        csv.writer(fh).writerows(rows)


def span(ref: str) -> tuple[str, int, int]:
    "File, start and count (float64 values) of a packed ``iq_blob_path``."
    name, _, rest = ref.rpartition("@")
    start, count = rest.split(":")
    return name, int(start), int(count)


def unpack_log(src: Path, dst: Path) -> Path:
    """Copy the packed log at src to dst with one bare blob file per row.

    This is the layout of per-row reader exports: every detected row names
    its own file ``blobs/w<window>_t<tag>_a<antenna>.bin``.  Returns dst.
    """
    comments, rows = read_csv(src)
    (dst / "blobs").mkdir(parents=True, exist_ok=True)
    packed = (src / "iq.bin").read_bytes() if (src / "iq.bin").exists() else b""
    for row in rows[1:]:
        if row[6]:
            _, start, count = span(row[6])
            row[6] = f"blobs/w{int(row[0]):05d}_t{row[2]}_a{row[3]}.bin"
            (dst / row[6]).write_bytes(packed[8 * start:8 * (start + count)])
    write_csv(dst, comments, rows)
    if (src / "truth.json").exists():
        shutil.copy(src / "truth.json", dst / "truth.json")
    return dst


def both_layouts(packed: Path) -> list[Path]:
    "The packed log and a per-row copy of it beside it."
    return [packed, unpack_log(packed, packed.with_name(packed.name + "_per_row"))]


def row_blob(log_dir: Path, row: int) -> tuple[Path, bytes]:
    "The blob as the parser names it and the IQ bytes of one CSV row, in either layout."
    ref = read_csv(log_dir)[1][row - 1][6]
    if "@" not in ref:
        return log_dir / ref, (log_dir / ref).read_bytes()
    name, start, count = span(ref)
    return log_dir / ref, (log_dir / name).read_bytes()[8 * start:8 * (start + count)]


def set_row_path(log_dir: Path, row: int, ref: str):
    "Replace one CSV row's iq_blob_path."
    comments, rows = read_csv(log_dir)
    rows[row - 1][6] = ref
    write_csv(log_dir, comments, rows)


def set_row_blob(log_dir: Path, row: int, data: bytes) -> Path:
    """Give one CSV row the IQ bytes data, in the log's layout.

    A per-row blob file is overwritten; in a packed log, data is appended to
    its file and the row's span points at it.  Returns the blob as the
    parser names it.
    """
    ref = read_csv(log_dir)[1][row - 1][6]
    if "@" not in ref:
        (log_dir / ref).write_bytes(data)
        return log_dir / ref
    name = span(ref)[0]
    start = (log_dir / name).stat().st_size // 8
    with open(log_dir / name, "ab") as fh:
        fh.write(data)
    ref = f"{name}@{start}:{len(data) // 8}"
    set_row_path(log_dir, row, ref)
    return log_dir / ref


# --- damaged logs ---------------------------------------------------------------

TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8)
MALFORMED = TEXT.filter(lambda s: not re.fullmatch(r"[0-9]+:[0-9]+", s))


def parses(kind, text: str) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


# a line starting with "#" is a comment line, not a row
NOT_INT = TEXT.filter(lambda s: not s.startswith("#") and not parses(int, s))
NOT_FLOAT = TEXT.filter(lambda s: s and not s.startswith("#") and not parses(float, s))
NOT_DETECTED = TEXT.filter(lambda s: not s.startswith("#")
                           and s.strip().lower() not in ("true", "false", "1", "0"))
ROW_EDITS = ("short", "int_field", "float_field", "nonfinite", "earlier", "detected")


@st.composite
def corruptions(draw):
    "A kind of damage to a packed log, its parameters, and the CSV row it must be reported at."
    kind = draw(st.sampled_from(["malformed", "negative", "overflow", "past_eof", "odd",
                                 "truncated", "missing", *ROW_EDITS]))
    row = draw(st.integers(2, 25))
    if kind == "short":
        return kind, row, draw(st.integers(1, len(CSV_HEADER) - 1))
    if kind == "int_field":
        return kind, row, (draw(st.sampled_from(["window_idx", "antenna"])), draw(NOT_INT))
    if kind == "float_field":
        return kind, row, (draw(st.sampled_from(["timestamp_s", "rss_dbm", "phase_rad"])),
                           draw(NOT_FLOAT))
    if kind == "nonfinite":  # every row of the packed log is a detected read
        return kind, row, (draw(st.sampled_from(["timestamp_s", "rss_dbm", "phase_rad"])),
                           draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"])))
    if kind == "detected":
        return kind, row, ("detected", draw(NOT_DETECTED))
    if kind == "earlier":
        return kind, max(row, 3), draw(st.floats(1e-6, 1e9))
    if kind == "malformed":
        return kind, row, draw(MALFORMED)
    if kind == "negative":
        return kind, row, draw(st.sampled_from(["start", "count"]))
    if kind == "overflow":
        return kind, row, (draw(st.sampled_from(["start", "count"])), draw(st.integers(64, 200)))
    if kind in ("past_eof", "odd"):
        return kind, row, draw(st.integers(1, 50))
    return kind, None, draw(st.integers(0, 10 ** 6))


def corrupt(log: Path, case) -> int:
    "Apply a case of ``corruptions`` to the packed log at log; returns the row it is at."
    kind, row, arg = case
    comments, rows = read_csv(log)
    size = (log / "iq.bin").stat().st_size
    if kind in ROW_EDITS:
        if kind == "short":
            rows[row - 1] = rows[row - 1][:arg]
        elif kind == "earlier":
            rows[row - 1][1] = repr(float(rows[row - 2][1]) - arg)
        else:
            column, text = arg
            rows[row - 1][CSV_HEADER.index(column)] = text
        write_csv(log, comments, rows)
    elif row is not None:
        name, start, count = span(rows[row - 1][6])
        if kind == "malformed":
            ref = f"{name}@{arg}"
        elif kind == "negative":
            ref = f"{name}@-{start}:{count}" if arg == "start" else f"{name}@{start}:-{count}"
        elif kind == "overflow":
            field, bits = arg
            ref = f"{name}@{start + 2 ** bits}:{count}" if field == "start" \
                else f"{name}@{start}:{count + 2 ** bits}"
        elif kind == "past_eof":
            ref = f"{name}@{size // 8 - count + 2 * arg}:{count}"
        else:  # odd
            ref = f"{name}@{start}:{2 * arg - 1}"
        set_row_path(log, row, ref)
    elif kind == "truncated":
        cut = arg % size
        with open(log / "iq.bin", "r+b") as fh:
            fh.truncate(cut)
        ends = [sum(span(r[6])[1:]) for r in rows[1:]]
        row = 2 if cut % 8 else 2 + next(i for i, end in enumerate(ends) if 8 * end > cut)
    else:
        (log / "iq.bin").unlink()
        row = 2
    return row
