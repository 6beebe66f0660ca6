import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logfiles import ReadRecord, from_records, records
from test_geometry import paper_geometry
from test_music import bits

from tagtrack.preprocess import IQWindow, split_by_tag, window_segments, windows_by_tag
from tagtrack.simulate import (PathSpec, SASSchedule, SimScene, anechoic_scene,
                               build_gesture_spec, simulate_gesture, simulate_log)
from tagtrack.tracking import measure_windows

GEO = paper_geometry()


def record(window, tag, antenna, detected=True, n=10, t0=None):
    t = window * 1.0 + 0.1 * antenna if t0 is None else t0
    iq = np.full(n, 1.0 + 0.0j) if detected else None
    return ReadRecord(window, t, tag, antenna, iq, 0.0 if detected else math.nan,
                      0.0 if detected else math.nan, detected)


def segments(recs):
    "window_segments of one tag's records."
    log = from_records(recs)
    (rows,) = split_by_tag(log).values()
    return window_segments(rows, log.iq, log.tag_ids[0])


def tag_records(log, tag):
    return [r for r in records(log) if r.tag_id == tag]


def misdetected_log(misdetect_prob=0.3, seed=3):
    "Two-tag gesture log in which some windows are read on one antenna or none."
    spec = build_gesture_spec("SL", np.random.default_rng(0), windows=12)
    scene = SimScene(GEO, [("tag1", [PathSpec(1.0, 0.0, is_los=True)]),
                           ("tag2", [PathSpec(1.0, 0.0, is_los=True)])],
                     misdetect_prob=misdetect_prob)
    return simulate_gesture(spec, scene, SASSchedule(), rng_seed=seed)[1]


def assert_windows_match_records(windows, records):
    """One window per two-antenna window_idx, in index order, holding the records' IQ."""
    rows = {(r.window_idx, r.antenna): r for r in records if r.detected}
    both = sorted({w for w, a in rows if (w, 3 - a) in rows})
    assert [w.window_idx for w in windows] == both
    for w in windows:
        r1, r2 = rows[w.window_idx, 1], rows[w.window_idx, 2]
        np.testing.assert_array_equal(w.matrix, np.vstack([r1.iq, r2.iq]))
        assert w.tag_id == r1.tag_id and not np.isnan(w.matrix).any()
        assert w.midpoint_time_s == 0.5 * (r1.timestamp_s + r2.timestamp_s)


def assert_same_windows(a, b):
    assert list(a) == list(b)
    for tag in a:
        assert len(a[tag]) == len(b[tag])
        for wa, wb in zip(a[tag], b[tag]):
            assert (wa.tag_id, wa.window_idx, wa.midpoint_time_s) == \
                (wb.tag_id, wb.window_idx, wb.midpoint_time_s)
            np.testing.assert_array_equal(wa.matrix, wb.matrix)


class TestSplitByTag:
    def test_partition_sizes(self):
        log = from_records([record(0, "A", 1), record(0, "A", 2),
                            record(0, "B", 1, t0=0.5), record(1, "B", 2, t0=1.5)])
        streams = split_by_tag(log)
        assert set(streams) == {"A", "B"}
        assert len(streams["A"]) + len(streams["B"]) == 4

    def test_empty_log(self):
        assert split_by_tag(from_records([])) == {}

    def test_single_tag_identity(self):
        recs = [record(0, "A", 1), record(0, "A", 2)]
        streams = split_by_tag(from_records(recs))
        assert list(streams) == ["A"]
        assert [(r.window_idx, r.timestamp_s, r.antenna, r.detected) for r in streams["A"]] == \
            [(r.window_idx, r.timestamp_s, r.antenna, r.detected) for r in recs]

    def test_time_order_preserved(self):
        recs = [record(w, "A", a, t0=w + 0.1 * a) for w in range(3) for a in (1, 2)]
        streams = split_by_tag(from_records(recs))
        times = streams["A"].timestamp_s.tolist()
        assert times == sorted(times)

    def test_repeated_row_rejected(self):
        recs = [record(0, "A", 1), record(0, "A", 2), record(0, "A", 1, t0=0.5)]
        with pytest.raises(ValueError, match="record 2: repeats window 0, tag A, antenna 1"):
            split_by_tag(from_records(recs))

    def test_unknown_antenna_rejected(self):
        bad = record(0, "A", 1)
        bad.antenna = 3
        with pytest.raises(ValueError, match="antenna"):
            split_by_tag(from_records([bad]))


def single_antenna_windows(records):
    "window_idx values read on exactly one antenna."
    read = {(r.window_idx, r.antenna) for r in records if r.detected}
    return {w for w, a in read if (w, 3 - a) not in read}


class TestPrune:
    "window_segments drops every acquisition window not read on both antennas."

    def test_single_antenna_window_removed(self):
        recs = [record(0, "A", 1), record(0, "A", 2), record(1, "A", 1)]
        assert [w.window_idx for w in segments(recs)] == [0]

    def test_complete_window_unchanged(self):
        recs = [record(0, "A", 1), record(0, "A", 2)]
        assert_windows_match_records(segments(recs), recs)
        assert len(segments(recs)) == 1

    def test_fully_complete_stream_identity(self):
        recs = [record(w, "A", a) for w in range(4) for a in (1, 2)]
        assert [w.window_idx for w in segments(recs)] == [0, 1, 2, 3]
        assert_windows_match_records(segments(recs), recs)

    def test_undetected_row_means_missing(self):
        recs = [record(0, "A", 1), record(0, "A", 2, detected=False)]
        assert segments(recs) == []
        assert windows_by_tag(from_records(recs)) == {}

    def test_idempotent(self):
        # windowing only the rows of the windows kept gives the same windows
        recs = [record(0, "A", 1), record(0, "A", 2), record(1, "A", 2),
                record(2, "A", 1), record(2, "A", 2, detected=False)]
        once = segments(recs)
        kept = {w.window_idx for w in once}
        again = segments([r for r in recs if r.window_idx in kept])
        assert_same_windows({"A": again}, {"A": once})

    def test_removed_rows_are_exactly_single_antenna_windows(self):
        rng = np.random.default_rng(0)
        recs = []
        for w in range(20):
            for a in (1, 2):
                recs.append(record(w, "A", a, detected=bool(rng.random() > 0.3)))
        windows = segments(recs)
        assert_windows_match_records(windows, recs)
        dropped = {r.window_idx for r in recs} - {w.window_idx for w in windows}
        lost = {r.window_idx for r in recs} - {r.window_idx for r in recs if r.detected}
        assert dropped == single_antenna_windows(recs) | lost
        assert single_antenna_windows(recs) and lost


class TestWindowSegments:
    def test_one_window_per_two_antenna_window_idx(self):
        log = misdetected_log()
        for tag, rows in split_by_tag(log).items():
            recs = tag_records(log, tag)
            assert single_antenna_windows(recs)  # the log exercises single-antenna windows
            assert_windows_match_records(window_segments(rows, log.iq, tag), recs)

    def test_rows_trimmed_and_short_windows_skipped(self):
        recs = [record(0, "A", 1, n=6), record(0, "A", 2, n=4),
                record(1, "A", 1, n=1), record(1, "A", 2, n=5),
                record(2, "A", 1, n=3), record(2, "A", 2, detected=False)]
        windows = segments(recs)
        assert [w.window_idx for w in windows] == [0]
        assert windows[0].matrix.shape == (2, 4)

    def test_conservation_through_split_and_prune(self):
        spec = build_gesture_spec("SL", np.random.default_rng(0), windows=12)
        scene = SimScene(GEO, [("tag1", [PathSpec(1.0, 0.0, is_los=True)]),
                               ("tag2", [PathSpec(1.0, 0.0, is_los=True)])],
                         misdetect_prob=0.3)
        _, log = simulate_gesture(spec, scene, SASSchedule(), rng_seed=3)
        streams = split_by_tag(log)
        assert sum(len(v) for v in streams.values()) == len(log)
        windows = windows_by_tag(log)
        for tag, records in streams.items():
            kept = {w.window_idx for w in windows.get(tag, [])}
            for r in records:
                ants = {x.antenna for x in records if x.window_idx == r.window_idx and x.detected}
                assert (r.window_idx in kept) == (ants == {1, 2})

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), p1=st.floats(0.0, 0.6), p2=st.floats(0.0, 0.6),
           n_windows=st.integers(1, 12), offset_s=st.floats(0.0, 2e9))
    def test_random_logs(self, seed, p1, p2, n_windows, offset_s):
        scene = anechoic_scene(GEO, 20.0, tag_ids=("tag1", "tag2"), misdetect_prob=(p1, p2))
        angles = [np.full(n_windows, 0.1), np.full(n_windows, -0.2)]
        log = simulate_log(scene, SASSchedule(samples_per_window=8), angles, [seed])
        log.timestamp_s += offset_s
        for tag, rows in split_by_tag(log).items():
            assert_windows_match_records(window_segments(rows, log.iq, tag),
                                         tag_records(log, tag))

    def test_windows_are_rows_of_stacks(self):
        "Windows are C-contiguous rows of (k, 2, n) copies of the IQ, consecutive in a stack."
        scene = anechoic_scene(GEO, 20.0, misdetect_prob=0.1)
        log = simulate_log(scene, SASSchedule(samples_per_window=8), [np.full(150, 0.1)], [3])
        windows = windows_by_tag(log)["tag1"]
        stacks = [w.matrix.base for w in windows]
        assert len(windows) > 100 and len({id(s) for s in stacks}) == -(-len(windows) // 64)
        for k, w in enumerate(windows):
            assert w.matrix.flags.c_contiguous and not np.shares_memory(w.matrix, log.iq)
            assert stacks[k].shape[1:] == (2, 2 * w.matrix.shape[1])
            assert np.shares_memory(w.matrix, stacks[k][k % 64])
        # each stack's covariances come from one product, one (k, 2, 2) array per stack
        assert len({id(w.covariance.base) for w in windows}) == len({id(s) for s in stacks})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_windows=st.integers(1, 160),
       widths=st.lists(st.integers(0, 60), min_size=1, max_size=3),
       p_miss=st.floats(0.0, 0.4), p_unequal=st.floats(0.0, 1.0),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
@example(seed=0, n_windows=160, widths=[50], p_miss=0.1, p_unequal=0.0, scale=1.0)
def test_stacked_covariance_is_per_window_bitwise(seed, n_windows, widths, p_miss,
                                                  p_unequal, scale):
    """Each window's covariance is its own Y Y^H / n, bit for bit, and estimates agree.

    Each antenna row takes one of ``widths`` snapshots (odd counts and rows
    under two included); with probability ``p_unequal`` antenna 2 draws its
    own, so the window is trimmed to the shorter row, and a row is lost with
    probability ``p_miss``.  Over 64 windows of one width span several stacks.
    """
    rng = np.random.default_rng(seed)
    recs = []
    for w in range(n_windows):
        n1 = widths[rng.integers(len(widths))]
        n2 = widths[rng.integers(len(widths))] if rng.random() < p_unequal else n1
        for a, n in ((1, n1), (2, n2)):
            iq = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
            detected = bool(rng.random() >= p_miss)
            recs.append(ReadRecord(w, w + 0.1 * a, "A", a, iq if detected else None,
                                   0.0 if detected else math.nan,
                                   0.0 if detected else math.nan, detected))
    windows = windows_by_tag(from_records(recs)).get("A", [])
    for w in windows:
        y = w.matrix
        assert w.covariance.tobytes() == (y @ y.conj().T / y.shape[1]).tobytes()
    bare = [IQWindow(w.tag_id, w.window_idx, w.matrix, w.midpoint_time_s) for w in windows]
    # residual phase divides the windows of the schedule's width by their transmit sequence
    residual = SASSchedule(samples_per_window=2 * max(widths[0], 2), residual_phase=True)
    for schedule in (None, residual):
        got, want = (measure_windows({"A": ws}, GEO, schedule)["A"] for ws in (windows, bare))
        assert [(bits(m.theta_hat), m.covariance.tobytes()) for m in got] == \
            [(bits(m.theta_hat), m.covariance.tobytes()) for m in want]

