"""Reader-log files edited by hand, as a real reader export or a damaged log.

These helpers work on the CSV and the blob bytes with the csv module alone,
not through tagtrack.  Rows are numbered as the parser's messages number
them: the header is row 1, comment lines are not counted.
"""

from __future__ import annotations

import csv
import shutil
from pathlib import Path


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
