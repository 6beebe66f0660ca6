import csv
import dataclasses
import json
import math
import re
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from logfiles import (ReadRecord, both_layouts, corrupt, corruptions, from_records, read_csv,
                      records, set_row_blob, set_row_path, unpack_log, write_csv)

from tagtrack import readerlog
from tagtrack.cli import main
from tagtrack.config import (dataset_spec_from, geometry_from, load_config, music_search_from,
                             schedule_from)
from tagtrack.music import spectrum_peaks
from tagtrack.pipeline import synthesize_fixed_log
from tagtrack.preprocess import windows_by_tag
from tagtrack.readerlog import (CSV_HEADER, IQ_FILE, ReaderLog, read_blob,
                                read_reader_log, write_reader_log)
from tagtrack.tracking import measure_windows


# --- reference log I/O ----------------------------------------------------
# The straightforward per-row forms of write_reader_log and read_reader_log:
# one np.mean-like sum per record and field, one writerow per record, one
# parse and one np.isfinite check per row.  The library's columnar versions
# must give the same bytes, the same columns and IQ bits, and the same first
# error, bit for bit.

IQ_LIMIT = 2.0 ** 250   # the largest IQ magnitude the reader accepts


def write_blob(fh, iq: np.ndarray) -> int:
    "Append iq to an open binary file as little-endian f64 I/Q; returns the values written."
    buf = np.ascontiguousarray(iq, dtype="<c16")
    fh.write(buf)
    return 2 * buf.size


def blob_iq(raw: np.ndarray, start: int, count: int) -> np.ndarray:
    "Complex view of count float64 values of raw from start on; a bad span raises ValueError."
    if count % 2:
        raise ValueError(f"holds an odd number of floats ({count})")
    if start < 0 or count < 0 or start + count > raw.size:
        raise ValueError(f"runs past the end of its file ({raw.size} floats)")
    iq = raw[start:start + count].view("<c16")
    if not np.isfinite(iq).all():
        raise ValueError("holds non-finite IQ values")
    return iq

def ref_fmt(x: float) -> str:
    return "" if isinstance(x, float) and math.isnan(x) else repr(float(x))


def ref_iq_means(rec: ReadRecord) -> tuple[float, float]:
    "I and Q means of a record's IQ, each the bits of np.mean; NaN when not read."
    if not rec.detected or rec.iq is None or not rec.iq.size:
        return math.nan, math.nan
    n = rec.iq.size
    return float(rec.iq.real.sum()) / n, float(rec.iq.imag.sum()) / n


def ref_write_reader_log(log: ReaderLog, out_dir) -> Path:
    recs = records(log)
    for i, rec in enumerate(recs):
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
    start = 0
    with open(csv_path, "w", newline="") as fh, open(out_dir / IQ_FILE, "wb") as iq_fh:
        if log.meta:
            fh.write("# " + ",".join(f"{k}={v}" for k, v in sorted(log.meta.items())) + "\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in recs:
            blob_rel = ""
            if rec.detected:
                count = write_blob(iq_fh, rec.iq)
                blob_rel = f"{IQ_FILE}@{start}:{count}"
                start += count
            rec.iq_blob_path = blob_rel
            i_mean, q_mean = ref_iq_means(rec)
            writer.writerow([
                rec.window_idx, ref_fmt(rec.timestamp_s), rec.tag_id, rec.antenna,
                ref_fmt(i_mean), ref_fmt(q_mean), blob_rel,
                ref_fmt(rec.rss_dbm), ref_fmt(rec.phase_rad),
                "true" if rec.detected else "false",
            ])
    if not start:
        (out_dir / IQ_FILE).unlink()
    if log.truth is not None:
        truth_deg = {tag: [float(np.degrees(v)) for v in series]
                     for tag, series in log.truth.items()}
        (out_dir / "truth.json").write_text(json.dumps(truth_deg, sort_keys=True, indent=1))
    return csv_path


def ref_row_iq(base: Path, ref: str, blobs: dict[str, np.ndarray]) -> np.ndarray:
    name, at, span = ref.rpartition("@")
    if not at:
        name = ref
    elif not (m := re.fullmatch(r"([0-9]+):([0-9]+)", span)):
        raise ValueError(f"malformed iq_blob_path {ref!r}: expected <file>@<start>:<count>")
    if name not in blobs:
        try:
            blobs[name] = read_blob(base / name)
        except OSError as e:
            raise ValueError(f"blob {base / name} cannot be read: {e.strerror}") from None
    raw = blobs[name]
    try:
        iq = blob_iq(raw, int(m[1]), int(m[2])) if at else blob_iq(raw, 0, raw.size)
        if np.abs(iq.view(float)).max(initial=0.0) > IQ_LIMIT:
            raise ValueError("holds an IQ value above 2**250 in magnitude")
        return iq
    except ValueError as e:
        raise ValueError(f"blob {base / ref} {e}") from None


def ref_read_reader_log(path) -> ReaderLog:
    path = Path(path)
    if path.is_dir():
        base, csv_path = path, path / "readerlog.csv"
    else:
        base, csv_path = path.parent, path
    recs, linenos = [], []
    seen: set[tuple[int, str, int]] = set()
    blobs: dict[str, np.ndarray] = {}
    last_t = -math.inf
    with open(csv_path, newline="") as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"{csv_path}: unexpected reader log header: {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"has {len(row)} columns, expected {len(CSV_HEADER)}")
            window_idx = int(row[0])
            if not -2 ** 63 <= window_idx < 2 ** 63:
                raise ValueError(f"window_idx {window_idx} is outside 64 bits")
            antenna = int(row[3])
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
            detected = {"true": True, "1": True, "false": False, "0": False}.get(
                row[9].strip().lower())
            if detected is None:
                raise ValueError(f"detected {row[9]!r} is not true, false, 1 or 0")
            if detected:
                if not row[6]:
                    raise ValueError("detected read has no iq_blob_path")
                if not (math.isfinite(rss) and math.isfinite(phase)):
                    raise ValueError(f"detected read has rss_dbm {row[7]!r} and phase_rad "
                                     f"{row[8]!r}; both must be finite")
            recs.append(ReadRecord(
                window_idx=window_idx, timestamp_s=timestamp, tag_id=row[2], antenna=antenna,
                iq=ref_row_iq(base, row[6], blobs) if detected else None,
                rss_dbm=rss, phase_rad=phase, detected=detected, iq_blob_path=row[6],
            ))
            linenos.append(lineno)
        except ValueError as e:
            raise ValueError(f"{csv_path} row {lineno}: {e}") from None
    # a whole-log rule, checked once every row is valid
    windows = [r.window_idx for r in recs]
    distinct = len(set(windows))
    if windows and max(windows) - min(windows) >= readerlog._SPAN_PER_WINDOW * distinct:
        other, k = sorted((windows.index(min(windows)), windows.index(max(windows))))
        raise ValueError(f"{csv_path} row {linenos[k]}: window_idx {windows[k]} is "
                         f"{max(windows) - min(windows)} windows from window_idx "
                         f"{windows[other]} at row {linenos[other]}; a log of {distinct} "
                         f"distinct windows may span at most "
                         f"{readerlog._SPAN_PER_WINDOW * distinct} windows")
    truth = None
    truth_path = base / "truth.json"
    if truth_path.exists():
        truth_deg = json.loads(truth_path.read_text())
        truth = {tag: np.radians(np.asarray(v, dtype=float)) for tag, v in truth_deg.items()}
    return from_records(recs, truth)


def make_records(n_windows=3, tag="tagA") -> list[ReadRecord]:
    rng = np.random.default_rng(0)
    recs = []
    for w in range(n_windows):
        for a in (1, 2):
            iq = rng.normal(size=8) + 1j * rng.normal(size=8)
            mean = complex(np.mean(iq))
            recs.append(ReadRecord(w, w * 0.05 + 0.01 * a, tag, a, iq,
                                   20 * math.log10(abs(mean)),
                                   math.atan2(mean.imag, mean.real), True))
    return recs


def make_log(n_windows=3, tag="tagA", recs=None) -> ReaderLog:
    truth = {tag: np.linspace(-0.1, 0.1, n_windows)}
    return from_records(recs or make_records(n_windows, tag), truth=truth, meta={"seed": 3})


class TestBlobs:
    def test_roundtrip_exact(self, tmp_path):
        iq = np.array([1.5 + 2.5j, -0.25 - 1e-17j, 3e300 + 0j])
        path = tmp_path / "x.bin"
        with open(path, "wb") as fh:
            assert write_blob(fh, np.ones(1)) == 2
            assert write_blob(fh, iq) == 6
        raw = read_blob(path)
        got = blob_iq(raw, 2, 6)
        np.testing.assert_array_equal(got, iq)
        assert got.base is raw  # a view, not a copy

    def test_little_endian_interleaved_layout(self, tmp_path):
        path = tmp_path / "x.bin"
        with open(path, "wb") as fh:
            write_blob(fh, np.array([1.0 + 2.0j]))
        raw = np.frombuffer(path.read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(raw, [1.0, 2.0])

    def test_partial_float_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(bytes(20))
        with pytest.raises(ValueError, match="20 bytes, not a whole number of float64"):
            read_blob(path)

    @pytest.mark.parametrize("start, count, message", [
        (0, 3, "odd number of floats"), (2, 4, "past the end"), (-2, 2, "past the end"),
        (0, -2, "past the end"), (2 ** 64, 2, "past the end"), (0, 2 ** 65, "past the end"),
    ], ids=["odd", "past_end", "negative_start", "negative_count", "huge_start", "huge_count"])
    def test_bad_span_rejected(self, start, count, message):
        with pytest.raises(ValueError, match=message):
            blob_iq(np.zeros(4), start, count)


class TestReaderLogIO:
    def test_roundtrip(self, tmp_path):
        log = make_log()
        write_reader_log(log, tmp_path)
        back = read_reader_log(tmp_path)
        assert len(back) == len(log)
        for ra, rb in zip(records(log), records(back)):
            np.testing.assert_array_equal(ra.iq, rb.iq)
            assert ra.rss_dbm == rb.rss_dbm  # repr() round-trips exactly
            assert ra.phase_rad == rb.phase_rad
        np.testing.assert_allclose(back.truth["tagA"], log.truth["tagA"], atol=1e-12)

    def test_meta_comment_line(self, tmp_path):
        write_reader_log(make_log(), tmp_path)
        first = (tmp_path / "readerlog.csv").read_text().splitlines()[0]
        assert first.startswith("#") and "seed=3" in first

    def test_header_schema(self, tmp_path):
        write_reader_log(make_log(), tmp_path)
        lines = (tmp_path / "readerlog.csv").read_text().splitlines()
        assert lines[1] == ",".join(CSV_HEADER)

    def test_bad_antenna_reports_row(self, tmp_path):
        write_reader_log(make_log(), tmp_path)
        csv_path = tmp_path / "readerlog.csv"
        lines = csv_path.read_text().splitlines()
        lines[2] = lines[2].replace(",tagA,1,", ",tagA,7,")
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 2"):
            read_reader_log(tmp_path)

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "readerlog.csv").write_text("a,b,c\n")
        with pytest.raises(ValueError, match=rf"{tmp_path}/readerlog\.csv: unexpected reader "
                                             rf"log header: \['a', 'b', 'c'\]"):
            read_reader_log(tmp_path)

    def test_timestamps_must_be_ordered(self):
        records = [ReadRecord(0, 1.0, "t", 1, np.ones(2, complex), 0.0, 0.0, True),
                   ReadRecord(1, 0.5, "t", 1, np.ones(2, complex), 0.0, 0.0, True)]
        with pytest.raises(ValueError, match="non-decreasing"):
            from_records(records).validate()
        records[1].timestamp_s = math.nan   # NaN compares false, so it is checked on its own
        with pytest.raises(ValueError, match="record 1: timestamps must be finite"):
            from_records(records).validate()

    def test_undetected_record_has_no_blob(self, tmp_path):
        recs = make_records(n_windows=1)
        recs.append(ReadRecord(1, 1.0, "tagA", 1, None, math.nan, math.nan, False))
        recs.append(ReadRecord(1, 1.01, "tagA", 2, None, math.nan, math.nan, False))
        write_reader_log(make_log(n_windows=1, recs=recs), tmp_path)
        undetected = [r for r in records(read_reader_log(tmp_path)) if not r.detected]
        assert len(undetected) == 2
        assert all(r.iq is None for r in undetected)
        assert [row[6] for row in read_csv(tmp_path)[1][-2:]] == ["", ""]

    def test_packed_layout(self, tmp_path):
        log = make_log()
        write_reader_log(log, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["iq.bin", "readerlog.csv",
                                                              "truth.json"]
        assert [row[6] for row in read_csv(tmp_path)[1][1:4]] == [
            "iq.bin@0:16", "iq.bin@16:16", "iq.bin@32:16"]
        raw = np.frombuffer((tmp_path / "iq.bin").read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(raw[16:32:2], records(log)[1].iq.real)

    def test_detected_row_without_blob_reports_row(self, tmp_path):
        write_reader_log(make_log(), tmp_path / "log")
        for log_dir in both_layouts(tmp_path / "log"):
            set_row_path(log_dir, 3, "")
            with pytest.raises(ValueError, match=rf"{log_dir.name}/readerlog\.csv row 3: "
                                                 rf"detected read has no"):
                read_reader_log(log_dir)

    @pytest.mark.parametrize("iq", [None, np.empty(0, complex)], ids=["missing", "empty"])
    def test_detected_record_without_iq_rejected_before_writing(self, tmp_path, iq):
        recs = make_records()
        recs[3].iq = iq
        log = make_log(recs=recs)
        with pytest.raises(ValueError, match=r"record 3 \(window 1, tag tagA, antenna 2\) "
                                             r"is detected but has no IQ"):
            write_reader_log(log, tmp_path / "log")
        assert not (tmp_path / "log").exists()

    @pytest.mark.parametrize("field, value", [("rss_dbm", math.nan), ("phase_rad", math.inf),
                                              ("rss_dbm", -math.inf)])
    def test_detected_record_with_nonfinite_level_rejected_before_writing(self, tmp_path,
                                                                        field, value):
        recs = make_records()
        setattr(recs[3], field, value)
        log = make_log(recs=recs)
        with pytest.raises(ValueError, match=r"record 3 \(window 1, tag tagA, antenna 2\) "
                                             r"is detected but has rss_dbm .* must be finite"):
            write_reader_log(log, tmp_path / "log")
        assert not (tmp_path / "log").exists()

    @pytest.mark.parametrize("column, text", [(7, "nan"), (7, ""), (8, "inf"), (8, "-Infinity")])
    def test_detected_row_with_nonfinite_level_reports_row(self, tmp_path, column, text):
        write_reader_log(make_log(), tmp_path)
        csv_path = tmp_path / "readerlog.csv"
        lines = csv_path.read_text().splitlines()
        fields = lines[4].split(",")
        fields[column] = text
        lines[4] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"readerlog\.csv row 4: detected read has rss_dbm "
                                             r".* both must be finite"):
            read_reader_log(tmp_path)

    def test_duplicate_row_reports_row(self, tmp_path):
        write_reader_log(make_log(), tmp_path)
        csv_path = tmp_path / "readerlog.csv"
        lines = csv_path.read_text().splitlines()
        lines.insert(4, lines[3])
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"readerlog\.csv row 4: duplicate row for window 0, "
                                             r"tag tagA, antenna 2"):
            read_reader_log(tmp_path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda raw: raw[:-8], "odd number of floats"),
        (lambda raw: np.float64(np.nan).tobytes() + raw[8:], "non-finite"),
        (lambda raw: raw[:8] + np.float64(np.inf).tobytes() + raw[16:], "non-finite"),
    ], ids=["odd", "nan", "inf"])
    def test_bad_blob_reports_row(self, tmp_path, corrupt, message):
        write_reader_log(make_log(), tmp_path / "log")
        packed, per_row = both_layouts(tmp_path / "log")
        raw = (per_row / "blobs" / "w00001_ttagA_a1.bin").read_bytes()
        for log_dir, blob in ((packed, r"iq\.bin@96:\d+"),
                              (per_row, r"blobs/w00001_ttagA_a1\.bin")):
            set_row_blob(log_dir, 4, corrupt(raw))
            with pytest.raises(ValueError, match=rf"{log_dir.name}/readerlog\.csv row 4: blob "
                                                 rf".*{log_dir.name}/{blob} holds .*{message}"):
                read_reader_log(log_dir)


FINITE = st.floats(-1e300, 1e300)
READABLE = st.floats(-IQ_LIMIT, IQ_LIMIT)
MAYBE_NAN = st.one_of(st.just(math.nan), st.floats(allow_nan=False))
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def long_iq(draw, readable=True):
    """IQ of a length around the blocks of numpy's pairwise sum (8 lanes, 128 values).

    Normal draws, clipped to +-64, scaled so that every value stays within
    ``IQ_LIMIT``; or, not ``readable``, scaled near the float64 limit, where
    a row's sum can overflow to inf or NaN.
    """
    n = draw(st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 255, 257, 300]))
    large = [IQ_LIMIT / 64, IQ_LIMIT / 2 ** 20] if readable else [1e300, 1e307]
    scale = draw(st.sampled_from([1.0, 1e-300, *large]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    i, q = np.clip(rng.normal(size=(2, n)), -64.0, 64.0)
    return (i + 1j * q) * scale


@st.composite
def reader_logs(draw, long_rows=False, readable=True):
    """Valid logs: unique (window, tag, antenna) rows, sorted times, detected or not, truth or not.

    Window indices lie within ``_SPAN_PER_WINDOW`` of a first index drawn up
    to 10**6, so no log spans more than the reader allows.  Detected rows
    carry a finite RSS and phase, and IQ within ``IQ_LIMIT``; undetected rows
    may carry anything, NaN included.  With ``long_rows`` a detected row's IQ
    comes from ``long_iq``.  Logs that are not ``readable`` are valid for the
    writer only: their IQ reaches 1e300 and, in long rows, 1e307.
    """
    tags = draw(st.lists(st.text(alphabet="abXY09_ ,\"", min_size=1, max_size=4),
                         min_size=1, max_size=3, unique=True))
    first = draw(st.integers(0, 10 ** 6))
    keys = draw(st.lists(st.tuples(st.integers(0, readerlog._SPAN_PER_WINDOW - 1),
                                   st.sampled_from(tags), st.sampled_from((1, 2))),
                         max_size=12, unique=True))
    times = sorted(draw(st.lists(st.floats(-2e9, 2e9), min_size=len(keys),
                                 max_size=len(keys))))
    recs = []
    for (offset, tag, antenna), t in zip(keys, times):
        window = first + offset
        iq = None
        if (detected := draw(st.booleans())) and long_rows:
            iq = draw(long_iq(readable))
        elif detected:
            n, values = draw(st.integers(1, 6)), READABLE if readable else FINITE
            iq = np.empty(n, dtype=complex)
            iq.real = draw(st.lists(values, min_size=n, max_size=n))
            iq.imag = draw(st.lists(values, min_size=n, max_size=n))
        level = ANY_FINITE if detected else MAYBE_NAN
        recs.append(ReadRecord(window, t, tag, antenna, iq, draw(level), draw(level), detected))
    truth = draw(st.none() | st.fixed_dictionaries(
        {tag: st.lists(st.floats(-1.5, 1.5), max_size=5).map(np.array) for tag in tags}))
    return from_records(recs, truth=truth, meta={"seed": 1})


def same_float(a: float, b: float) -> bool:
    "Equal bit for bit, or both NaN."
    return (math.isnan(a) and math.isnan(b)) or \
        (a == b and math.copysign(1, a) == math.copysign(1, b))


@settings(max_examples=60, deadline=None)
@given(log=reader_logs())
def test_write_read_is_identity(log):
    with tempfile.TemporaryDirectory() as tmp:
        write_reader_log(log, tmp)
        assert (Path(tmp) / "iq.bin").exists() == log.detected.any()
        back = read_reader_log(tmp)
    assert len(back) == len(log) and back.tag_ids == log.tag_ids
    for ra, rb in zip(records(log), records(back)):
        assert (ra.window_idx, ra.tag_id, ra.antenna, ra.detected) == \
            (rb.window_idx, rb.tag_id, rb.antenna, rb.detected)
        assert same_float(ra.timestamp_s, rb.timestamp_s)
        assert same_float(ra.rss_dbm, rb.rss_dbm) and same_float(ra.phase_rad, rb.phase_rad)
        if ra.detected:
            assert rb.iq.dtype == np.complex128 and rb.iq.tobytes() == ra.iq.tobytes()
        else:
            assert rb.iq is None
    if log.truth is None:
        assert back.truth is None
    else:
        assert sorted(back.truth) == sorted(log.truth)
        for tag, series in log.truth.items():  # degrees on disk: equal to rounding
            np.testing.assert_allclose(back.truth[tag], series, rtol=1e-14, atol=1e-300)


ANY_LOG = st.one_of(reader_logs(), reader_logs(long_rows=True))
WRITABLE_LOG = st.one_of(reader_logs(readable=False), reader_logs(long_rows=True, readable=False))


def assert_same_files(a: Path, b: Path):
    assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
    for p in a.iterdir():
        assert p.read_bytes() == (b / p.name).read_bytes(), p.name


def assert_same_records(got: ReaderLog, want: ReaderLog):
    "Row by row, IQ bits and dtype included."
    assert len(got) == len(want) and got.tag_ids == want.tag_ids
    for rg, rw in zip(records(got), records(want)):
        assert (rg.window_idx, rg.tag_id, rg.antenna, rg.detected) == \
            (rw.window_idx, rw.tag_id, rw.antenna, rw.detected)
        for field in ("timestamp_s", "rss_dbm", "phase_rad"):
            assert same_float(getattr(rg, field), getattr(rw, field))
        if rw.iq is None:
            assert rg.iq is None
        else:
            assert rg.iq.dtype == rw.iq.dtype and rg.iq.tobytes() == rw.iq.tobytes()
    assert (got.truth is None) == (want.truth is None)
    for tag in want.truth or {}:
        assert got.truth[tag].tobytes() == want.truth[tag].tobytes()


@settings(max_examples=80, deadline=None)
@given(log=WRITABLE_LOG, batch=st.sampled_from([1, 2, 3, readerlog._MEAN_ROWS]))
def test_writer_matches_reference(log, batch):
    "readerlog.csv, iq.bin and truth.json equal the per-row writer's, byte for byte."
    # rows near 1e308 overflow their i_mean/q_mean sums, as in the reference
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore", invalid="ignore"):
        ref_write_reader_log(log, Path(tmp) / "ref")
        with mock.patch.object(readerlog, "_MEAN_ROWS", batch):
            write_reader_log(log, Path(tmp) / "new")
        assert_same_files(Path(tmp) / "new", Path(tmp) / "ref")


@settings(max_examples=60, deadline=None)
@given(log=ANY_LOG)
def test_reader_matches_reference(log):
    "Both layouts, packed and per-row blobs, read into the per-row reader's columns, bit for bit."
    with tempfile.TemporaryDirectory() as tmp:
        packed = Path(tmp) / "log"
        write_reader_log(log, packed)
        for log_dir in (packed, unpack_log(packed, Path(tmp) / "per_row")):
            assert_same_records(read_reader_log(log_dir), ref_read_reader_log(log_dir))


@pytest.mark.parametrize("end", ["\r\n", "\r", "\n"], ids=["crlf", "cr", "lf"])
@pytest.mark.parametrize("tag", ["tagA", 'ta"g', "t,ag"], ids=["plain", "quote", "comma"])
def test_line_ends_blank_lines_and_quoting_read_as_csv(tmp_path, end, tag):
    "Logs with and without quoted fields read as csv.reader reads them, blank lines skipped."
    write_reader_log(make_log(tag=tag), tmp_path)
    lines = (tmp_path / "readerlog.csv").read_text().splitlines()
    lines[3:3] = ["", ""]
    (tmp_path / "readerlog.csv").write_bytes((end.join(lines) + end).encode())
    back = read_reader_log(tmp_path)
    assert_same_records(back, ref_read_reader_log(tmp_path))
    assert back.tag_ids == [tag] and len(back) == 6


def test_nonfinite_value_outside_every_span_parses(tmp_path):
    "A blob file is checked as a whole, then per row only where it holds a bad value."
    write_reader_log(make_log(), tmp_path)
    with open(tmp_path / "iq.bin", "ab") as fh:
        fh.write(np.array([np.nan, np.inf, -np.inf, 1e300, 0.0]).tobytes())
    assert_same_records(read_reader_log(tmp_path), ref_read_reader_log(tmp_path))


@pytest.fixture(scope="module")
def fixed_logs() -> dict:
    "(config, in-memory fixed-tag log) with the residual carrier phase off (False) and on (True)."
    logs = {}
    for residual in (False, True):
        cfg = load_config(seed=4, overrides=[
            "scene.mode=\"fixed\"", "scene.windows=8", "scene.misdetect_prob=0.0",
            f"schedule.residual_phase={str(residual).lower()}",
            "schedule.sample_period_s=2.5037e-4"])
        angles = {tag: math.radians(deg) for tag, deg in cfg["scene"]["fixed_tags_deg"].items()}
        logs[residual] = cfg, synthesize_fixed_log(geometry_from(cfg), schedule_from(cfg),
                                                   dataset_spec_from(cfg), angles, cfg["seed"])
    return logs


MAX_FLOAT = float(np.finfo(float).max)
# magnitudes 0 to float max: as floats draw them; spread over every exponent, subnormals
# included, and, more densely, over those whose covariance products (2 e) or their squares
# (4 e) near float max's (1024) or underflow; and the limit's neighbours
IQ_SCALES = st.one_of(
    st.floats(0.0, MAX_FLOAT),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
              st.one_of(st.integers(-1073, 1024), st.integers(240, 520),
                        st.integers(-560, -240))),
    st.sampled_from([0.0, IQ_LIMIT, np.nextafter(IQ_LIMIT, 0.0), np.nextafter(IQ_LIMIT, math.inf)]))


@settings(max_examples=150, deadline=None)
@given(residual=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       scales=st.dictionaries(st.integers(0, 15), st.tuples(IQ_SCALES, IQ_SCALES), min_size=1))
def test_accepted_iq_keeps_covariances_finite(fixed_logs, residual, scales, seed):
    """An accepted log with IQ magnitudes from 0 up to float max gives finite estimates.

    Window-tag pair p of the log (8 windows, 2 tags) gets antenna-1 and
    antenna-2 IQ of largest magnitudes ``scales[p]``.  The log is rejected,
    naming the first row past ``IQ_LIMIT``, or each of its windows has a
    finite covariance, angle and pseudospectrum peak, without a warning
    (warnings are errors here), with the transmit sequence divided out or not.
    """
    cfg, log = fixed_logs[residual]
    iq, rng = log.iq.copy(), np.random.default_rng(seed)
    pairs = sorted(set(zip(log.window_idx.tolist(), log.tag.tolist())))
    too_big = []
    for p, pair_scales in scales.items():
        rows = np.flatnonzero((log.window_idx == pairs[p][0]) & (log.tag == pairs[p][1]))
        for k, scale in zip(rows.tolist(), pair_scales):
            u = rng.uniform(-1.0, 1.0, log.count[k])
            u[rng.integers(u.size)] = rng.choice([-1.0, 1.0])
            iq[log.start[k]:log.start[k] + log.count[k]] = scale * u
            too_big += [k] if scale > IQ_LIMIT else []
    with tempfile.TemporaryDirectory() as tmp:
        with np.errstate(over="ignore", invalid="ignore"):  # i_mean of rows near float max
            write_reader_log(dataclasses.replace(log, iq=iq), tmp)
        if too_big:
            assert re.search(rf"row {min(too_big) + 2}: blob .* holds an IQ value above "
                             r"2\*\*250", first_error(read_reader_log, tmp))
            return
        windows = windows_by_tag(read_reader_log(tmp))
    assert all(np.isfinite(w.covariance).all() for ws in windows.values() for w in ws)
    geo = geometry_from(cfg)
    meas = [m for ms in measure_windows(windows, geo, schedule_from(cfg),
                                        music_search_from(cfg)).values() for m in ms]
    assert len(meas) == 16
    assert all(np.isfinite(m.covariance).all() and math.isfinite(m.theta_hat) for m in meas)
    assert np.isfinite(spectrum_peaks(meas, geo)).all()


@pytest.fixture(scope="module")
def fixed_log(tmp_path_factory) -> Path:
    "A fixed-tag log whose 32 rows (8 windows x 2 tags x 2 antennas) are all detected."
    log = tmp_path_factory.mktemp("fuzz") / "log"
    assert main(["simulate", "--seed", "2", "--out", str(log), "--set", "scene.mode=\"fixed\"",
                 "--set", "scene.misdetect_prob=0.0", "--set", "scene.windows=8"]) == 0
    return log


def first_error(read, log_dir) -> str:
    with pytest.raises(ValueError) as e:
        read(log_dir)
    return str(e.value)


@settings(max_examples=100, deadline=None)
@given(case=corruptions())
def test_reader_errors_match_reference(fixed_log, case):
    "A damaged log fails with the per-row reader's first error, naming the same row."
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log"
        shutil.copytree(fixed_log, log)
        row = corrupt(log, case)
        message = first_error(read_reader_log, log)
        assert message == first_error(ref_read_reader_log, log)
    assert message.startswith(f"{log / 'readerlog.csv'} row {row}: ")


@pytest.mark.parametrize("edits", [
    {3: (0, "x"), 5: (1, "nan")}, {4: (9, "yes"), 3: (7, "inf")}, {2: (6, "iq.bin@1:2:3")},
    {6: (0, str(2 ** 64)), 7: (3, "3")}, {3: (6, "")}, {5: (6, "blobs/none.bin")},
], ids=["int_then_float", "levels_before_detected", "malformed", "window_64_bits",
        "no_path", "missing_file"])
def test_reader_reports_first_of_several_errors(fixed_log, tmp_path, edits):
    "With several bad rows the first is reported, with its first bad field, as row by row."
    log = tmp_path / "log"
    shutil.copytree(fixed_log, log)
    comments, rows = read_csv(log)
    for row, (column, text) in edits.items():
        rows[row - 1][column] = text
    write_csv(log, comments, rows)
    message = first_error(read_reader_log, log)
    assert message == first_error(ref_read_reader_log, log)
    assert message.startswith(f"{log / 'readerlog.csv'} row {min(edits)}: ")


@pytest.mark.parametrize("edits, row", [
    ({"7": "127"}, None), ({"7": "128"}, 30), ({"0": "-121"}, 30), ({"0": "-2000"}, 30),
    ({"7": str(2 ** 63 - 1)}, 30), ({"7": "-500"}, 30), ({"1": "900"}, 6),
], ids=["at_bound", "past_bound", "low_first_row", "far_low_first_row", "int64_max",
        "low_last_rows", "middle_rows"])
def test_window_span_is_bounded(fixed_log, tmp_path, edits, row):
    """8 distinct windows may span 128 window slots; past that the later end's first row is named.

    Each edit renumbers every row of one window of the 8-window log.
    """
    log = tmp_path / "log"
    shutil.copytree(fixed_log, log)
    comments, rows = read_csv(log)
    for r in rows[1:]:
        r[0] = edits.get(r[0], r[0])
    write_csv(log, comments, rows)
    if row is None:
        assert_same_records(read_reader_log(log), ref_read_reader_log(log))
        return
    message = first_error(read_reader_log, log)
    assert message == first_error(ref_read_reader_log, log)
    assert message.startswith(f"{log / 'readerlog.csv'} row {row}: window_idx ")
    assert message.endswith("; a log of 8 distinct windows may span at most 128 windows")


def test_row_error_is_reported_before_window_span(fixed_log, tmp_path):
    "The span is a rule of a log whose rows are valid: a bad row after the far window wins."
    log = tmp_path / "log"
    shutil.copytree(fixed_log, log)
    comments, rows = read_csv(log)
    for r in rows[1:]:
        r[0] = "50000" if r[0] == "7" else r[0]
    rows[-1][3] = "3"
    write_csv(log, comments, rows)
    message = first_error(read_reader_log, log)
    assert message == first_error(ref_read_reader_log, log)
    assert message == f"{log / 'readerlog.csv'} row 33: antenna must be 1 or 2, got 3"


@pytest.mark.parametrize("ref", ["iq.bin@0:0015", "iq.bin@0016:16", "iq.bin@00:" + "9" * 23,
                                 "iq.bin@" + "1" * 19 + ":16", "iq.bin@1:16", "iq.bin@96:16x",
                                 "iq.bin@@96:16", "iq.bin"],
                         ids=["odd_leading_zeros", "leading_zeros", "huge_count", "huge_start",
                              "odd_start", "malformed", "double_at", "bare"])
def test_span_texts_read_as_reference(tmp_path, ref):
    "Span numbers of any length and spelling give the per-row reader's result or error."
    write_reader_log(make_log(), tmp_path)
    set_row_path(tmp_path, 3, ref)
    try:
        got = read_reader_log(tmp_path)
    except ValueError as e:
        assert str(e) == first_error(ref_read_reader_log, tmp_path)
    else:
        assert_same_records(got, ref_read_reader_log(tmp_path))
