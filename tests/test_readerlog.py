import math

import numpy as np
import pytest

from tagtrack.readerlog import (CSV_HEADER, ReaderLog, ReadRecord, read_blob,
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
        write_blob(path, iq)
        np.testing.assert_array_equal(read_blob(path), iq)

    def test_little_endian_interleaved_layout(self, tmp_path):
        path = tmp_path / "x.bin"
        write_blob(path, np.array([1.0 + 2.0j]))
        raw = np.frombuffer(path.read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(raw, [1.0, 2.0])


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

    def test_undetected_record_has_no_blob(self, tmp_path):
        log = make_log(n_windows=1)
        log.records.append(ReadRecord(1, 1.0, "tagA", 1, None, math.nan, math.nan, False))
        log.records.append(ReadRecord(1, 1.01, "tagA", 2, None, math.nan, math.nan, False))
        write_reader_log(log, tmp_path)
        back = read_reader_log(tmp_path)
        undetected = [r for r in back.records if not r.detected]
        assert len(undetected) == 2
        assert all(r.iq is None and r.iq_blob_path == "" for r in undetected)

    def test_detected_row_without_blob_reports_row(self, tmp_path):
        write_reader_log(make_log(), tmp_path)
        csv_path = tmp_path / "readerlog.csv"
        lines = csv_path.read_text().splitlines()
        lines[3] = lines[3].replace("blobs/w00000_ttagA_a2.bin", "")
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"readerlog\.csv row 3: detected read has no"):
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
        write_reader_log(make_log(), tmp_path)
        blob = tmp_path / "blobs" / "w00001_ttagA_a1.bin"
        blob.write_bytes(corrupt(blob.read_bytes()))
        with pytest.raises(ValueError, match=rf"readerlog\.csv row 4: blob .*w00001_ttagA_a1"
                                             rf"\.bin holds .*{message}"):
            read_reader_log(tmp_path)
