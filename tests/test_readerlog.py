import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from logfiles import both_layouts, set_row_blob, set_row_path

from tagtrack.readerlog import (CSV_HEADER, ReaderLog, ReadRecord, blob_iq, read_blob,
                                read_reader_log, write_blob, write_reader_log)


def make_log(n_windows=3, tag="tagA"):
    rng = np.random.default_rng(0)
    records = []
    for w in range(n_windows):
        for a in (1, 2):
            iq = rng.normal(size=8) + 1j * rng.normal(size=8)
            mean = complex(np.mean(iq))
            records.append(ReadRecord(w, w * 0.05 + 0.01 * a, tag, a, iq,
                                      20 * math.log10(abs(mean)),
                                      math.atan2(mean.imag, mean.real), True))
    truth = {tag: np.linspace(-0.1, 0.1, n_windows)}
    return ReaderLog(records=records, truth=truth, meta={"seed": 3})


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
        assert len(back.records) == len(log.records)
        for ra, rb in zip(log.records, back.records):
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
        with pytest.raises(ValueError, match="header"):
            read_reader_log(tmp_path)

    def test_timestamps_must_be_ordered(self):
        records = [ReadRecord(0, 1.0, "t", 1, np.ones(2, complex), 0.0, 0.0, True),
                   ReadRecord(1, 0.5, "t", 1, np.ones(2, complex), 0.0, 0.0, True)]
        with pytest.raises(ValueError, match="non-decreasing"):
            ReaderLog(records=records).validate()
        records[1].timestamp_s = math.nan   # NaN compares false, so it is checked on its own
        with pytest.raises(ValueError, match="record 1: timestamps must be finite"):
            ReaderLog(records=records).validate()

    def test_undetected_record_has_no_blob(self, tmp_path):
        log = make_log(n_windows=1)
        log.records.append(ReadRecord(1, 1.0, "tagA", 1, None, math.nan, math.nan, False))
        log.records.append(ReadRecord(1, 1.01, "tagA", 2, None, math.nan, math.nan, False))
        write_reader_log(log, tmp_path)
        back = read_reader_log(tmp_path)
        undetected = [r for r in back.records if not r.detected]
        assert len(undetected) == 2
        assert all(r.iq is None and r.iq_blob_path == "" for r in undetected)

    def test_packed_layout(self, tmp_path):
        log = make_log()
        write_reader_log(log, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["iq.bin", "readerlog.csv",
                                                              "truth.json"]
        assert [r.iq_blob_path for r in log.records[:3]] == [
            "iq.bin@0:16", "iq.bin@16:16", "iq.bin@32:16"]
        raw = np.frombuffer((tmp_path / "iq.bin").read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(raw[16:32:2], log.records[1].iq.real)

    def test_detected_row_without_blob_reports_row(self, tmp_path):
        write_reader_log(make_log(), tmp_path / "log")
        for log_dir in both_layouts(tmp_path / "log"):
            set_row_path(log_dir, 3, "")
            with pytest.raises(ValueError, match=rf"{log_dir.name}/readerlog\.csv row 3: "
                                                 rf"detected read has no"):
                read_reader_log(log_dir)

    @pytest.mark.parametrize("iq", [None, np.empty(0, complex)], ids=["missing", "empty"])
    def test_detected_record_without_iq_rejected_before_writing(self, tmp_path, iq):
        log = make_log()
        log.records[3].iq = iq
        with pytest.raises(ValueError, match=r"record 3 \(window 1, tag tagA, antenna 2\) "
                                             r"is detected but has no IQ"):
            write_reader_log(log, tmp_path / "log")
        assert not (tmp_path / "log").exists()

    @pytest.mark.parametrize("field, value", [("rss_dbm", math.nan), ("phase_rad", math.inf),
                                              ("rss_dbm", -math.inf)])
    def test_detected_record_with_nonfinite_level_rejected_before_writing(self, tmp_path,
                                                                        field, value):
        log = make_log()
        setattr(log.records[3], field, value)
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
MAYBE_NAN = st.one_of(st.just(math.nan), st.floats(allow_nan=False))
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def reader_logs(draw):
    """Valid logs: unique (window, tag, antenna) rows, sorted times, detected or not, truth or not.

    Detected rows carry a finite RSS and phase; undetected rows may carry
    anything, NaN included.
    """
    tags = draw(st.lists(st.text(alphabet="abXY09_ ,\"", min_size=1, max_size=4),
                         min_size=1, max_size=3, unique=True))
    keys = draw(st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(tags),
                                   st.sampled_from((1, 2))), max_size=12, unique=True))
    times = sorted(draw(st.lists(st.floats(-2e9, 2e9), min_size=len(keys),
                                 max_size=len(keys))))
    records = []
    for (window, tag, antenna), t in zip(keys, times):
        iq = None
        if detected := draw(st.booleans()):
            n = draw(st.integers(1, 6))
            iq = np.empty(n, dtype=complex)
            iq.real = draw(st.lists(FINITE, min_size=n, max_size=n))
            iq.imag = draw(st.lists(FINITE, min_size=n, max_size=n))
        level = ANY_FINITE if detected else MAYBE_NAN
        records.append(ReadRecord(window, t, tag, antenna, iq, draw(level), draw(level),
                                  detected))
    truth = draw(st.none() | st.fixed_dictionaries(
        {tag: st.lists(st.floats(-1.5, 1.5), max_size=5).map(np.array) for tag in tags}))
    return ReaderLog(records=records, truth=truth, meta={"seed": 1})


def same_float(a: float, b: float) -> bool:
    "Equal bit for bit, or both NaN."
    return (math.isnan(a) and math.isnan(b)) or \
        (a == b and math.copysign(1, a) == math.copysign(1, b))


@settings(max_examples=60, deadline=None)
@given(log=reader_logs())
def test_write_read_is_identity(log):
    with tempfile.TemporaryDirectory() as tmp:
        write_reader_log(log, tmp)
        back = read_reader_log(tmp)
        assert (Path(tmp) / "iq.bin").exists() == any(r.detected for r in log.records)
    assert len(back.records) == len(log.records)
    for ra, rb in zip(log.records, back.records):
        assert (ra.window_idx, ra.tag_id, ra.antenna, ra.detected, ra.iq_blob_path) == \
            (rb.window_idx, rb.tag_id, rb.antenna, rb.detected, rb.iq_blob_path)
        assert same_float(ra.timestamp_s, rb.timestamp_s)
        assert same_float(ra.rss_dbm, rb.rss_dbm) and same_float(ra.phase_rad, rb.phase_rad)
        if ra.detected:
            assert rb.iq.dtype == np.complex128 and rb.iq.tobytes() == ra.iq.tobytes()
        else:
            assert rb.iq is None and rb.iq_blob_path == ""
    if log.truth is None:
        assert back.truth is None
    else:
        assert sorted(back.truth) == sorted(log.truth)
        for tag, series in log.truth.items():  # degrees on disk: equal to rounding
            np.testing.assert_allclose(back.truth[tag], series, rtol=1e-14, atol=1e-300)
