from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from logfiles import records
from scenes import anechoic_scene
from test_geometry import paper_geometry

from tagtrack.features import SampleFeatureError
from tagtrack.geometry import unambiguous_fov
from tagtrack.pipeline import (DatasetSpec, dtw_experiment, knn_experiment, series_bundles,
                               synthesize_dataset, synthesize_fixed_log, synthesize_gesture,
                               tracked_sample)
from tagtrack.readerlog import ReaderLog
from tagtrack.simulate import SASSchedule, simulate_log
from tagtrack.tracking import KalmanConfig, track_aoa
from test_features import prepare_row
from test_simulate import assert_same_logs

GEO = paper_geometry()
SCHED = SASSchedule()


def series_bundle(sample, channel: str) -> dict[str, np.ndarray]:
    "One sample's bundle, series by series: the reference ``series_bundles`` stacks."
    return {f"{tag}:{channel}": prepare_row(channel, getattr(sample, channel)[tag],
                                            sample.n_windows)
            for tag in sorted(sample.tag_ids)}


def small_spec(**kw):
    base = dict(classes=("SL", "SR"), samples_per_class=4, windows=16,
                snr_db=15.0, misdetect_prob=0.05)
    base.update(kw)
    return DatasetSpec(**base)


class TestSynthesis:
    @pytest.mark.parametrize("dataset", [108, 136])
    def test_out_of_fov_draw_synthesizes(self, dataset):
        # sample 28 of class 2HLR (index 4) draws an offset that carries its
        # ramp past the +-18.2 deg field of view; it is shifted back inside
        log = synthesize_gesture("2HLR", GEO, SCHED, DatasetSpec(), seed=[dataset, 4, 28])
        fov = unambiguous_fov(GEO)
        assert all(np.abs(series).max() <= fov for series in log.truth.values())

    def test_fixed_log_without_paths_is_anechoic_scene(self):
        "With no scatterer paths a fixed log is simulate_log over anechoic_scene, bit for bit."
        spec = DatasetSpec(windows=12, nlos_paths=0, tx_power=4.0, modulation_gain=0.5,
                           misdetect_prob=(0.1, 0.2))
        log = synthesize_fixed_log(GEO, SCHED, spec, {"tag2": -0.2, "tag1": 0.1}, seed=5)
        scene = anechoic_scene(GEO, spec.snr_db, tag_ids=("tag1", "tag2"), tx_power=4.0,
                               modulation_gain=0.5, misdetect_prob=(0.1, 0.2))
        want = simulate_log(scene, SCHED, [np.full(12, 0.1), np.full(12, -0.2)], [5, 1])
        assert not want.detected.all()
        assert_same_logs(log, want)

    def test_identical_seeds_bit_identical_logs(self):
        spec = small_spec()
        log_a = synthesize_gesture("SL", GEO, SCHED, spec, seed=[1, 0, 0])
        log_b = synthesize_gesture("SL", GEO, SCHED, spec, seed=[1, 0, 0])
        assert len(log_a) == len(log_b)
        for ra, rb in zip(records(log_a), records(log_b)):
            assert ra.detected == rb.detected
            if ra.detected:
                np.testing.assert_array_equal(ra.iq, rb.iq)

    def test_dataset_labels_and_sizes(self):
        samples = synthesize_dataset(GEO, SCHED, small_spec(), seed=2)
        assert len(samples) == 8
        assert sorted({s.label for s in samples}) == ["SL", "SR"]
        for s in samples:
            assert s.n_windows == 16
            assert set(s.aoa) == {"tag1", "tag2"}

    def test_tracked_sample_fills_aoa_near_truth(self):
        spec = small_spec(misdetect_prob=0.0, snr_db=25.0, nlos_paths=0)
        log = synthesize_gesture("SL", GEO, SCHED, spec, seed=[3, 0, 0])
        sample = tracked_sample(log, "SL", GEO, SCHED)
        for tag in sample.tag_ids:
            aoa = sample.aoa[tag]
            assert np.isfinite(aoa).all()
            err = np.degrees(np.abs(aoa - log.truth[tag]))
            assert np.median(err) < 1.5

    def test_series_bundle_keys(self):
        samples = synthesize_dataset(GEO, SCHED, small_spec(samples_per_class=1), seed=4)
        bundle = series_bundles(samples, "aoa")[0]
        assert sorted(bundle) == ["tag1:aoa", "tag2:aoa"]
        assert all(np.isfinite(v).all() for v in bundle.values())

    @pytest.mark.parametrize("channel", ["aoa", "phase", "rss"])
    def test_series_bundles_equal_per_sample_reference(self, channel):
        "Stacked bundles, over mixed lengths and NaN gaps, equal the per-series ones bit for bit."
        samples = synthesize_dataset(GEO, SCHED, small_spec(samples_per_class=3), seed=6)
        samples += synthesize_dataset(GEO, SCHED, small_spec(samples_per_class=2, windows=11),
                                      seed=7)
        samples[1].phase["tag1"][:3] = np.nan
        samples[-1].rss["tag2"][[0, 4, 5, -1]] = np.nan
        got = series_bundles(samples, channel)
        assert len(got) == len(samples)
        for bundle, sample in zip(got, samples):
            want = series_bundle(sample, channel)
            assert list(bundle) == list(want)
            for key in want:
                assert bundle[key].tobytes() == want[key].tobytes()


# --- the two-step path tracked_sample replaced, kept as its reference -------------

@dataclass
class TwoStepSample:
    "The sample the two-step path filled in: GestureSample with its truth field."

    label: str
    tag_ids: list[str]
    truth: dict[str, np.ndarray]
    rss: dict[str, np.ndarray]
    phase: dict[str, np.ndarray]
    aoa: dict[str, np.ndarray] = field(default_factory=dict)
    n_windows: int = 0
    dt_s: float = 0.0


def two_step_gesture_sample(log: ReaderLog, label: str, dt_s: float) -> TwoStepSample:
    """Channel series of a recording from its reader log.

    RSS and phase are the antenna-1 window aggregates on the window grid
    starting at the log's first window index, NaN where the read was lost.
    """
    first = log.first_window
    T = 1 + int(log.window_idx.max()) - first
    rss, phase = {}, {}
    for i, tag in enumerate(log.tag_ids):
        rows = log.detected & (log.antenna == 1) & (log.tag == i)
        at = log.window_idx[rows] - first
        rss[tag], phase[tag] = np.full(T, np.nan), np.full(T, np.nan)
        rss[tag][at] = log.rss_dbm[rows]
        phase[tag][at] = log.phase_rad[rows]
    return TwoStepSample(label=label, tag_ids=list(log.tag_ids), truth=log.truth or {}, rss=rss,
                         phase=phase, n_windows=T, dt_s=dt_s)


def two_step_attach_tracks(sample: TwoStepSample, log: ReaderLog, geometry,
                           kalman: KalmanConfig | None = None,
                           schedule: SASSchedule | None = None,
                           music_search: tuple[float, float] | None = None) -> TwoStepSample:
    """Run the tracking chain on the log and fill the sample's AoA channel.

    Track slot t is acquisition window ``track.first_window + t``, counted
    like the sample's channels from the log's first window; windows missing
    from the track stay NaN (imputed at feature time).
    """
    tracks = track_aoa(log, geometry, music_search=music_search, kalman=kalman,
                       schedule=schedule)
    for tag in sample.tag_ids:
        series = np.full(sample.n_windows, np.nan)
        track = tracks.get(tag)
        if track is not None:
            start = track.first_window - log.first_window
            series[start:start + track.n_windows] = track.smoothed_series()
        sample.aoa[tag] = series
    return sample


def without_first_windows(log: ReaderLog, tag: str, windows: int) -> ReaderLog:
    "The log without ``tag``'s rows of its first ``windows`` windows."
    keep = (log.tag != log.tag_ids.index(tag)) | (log.window_idx >= log.first_window + windows)
    columns = ("window_idx", "timestamp_s", "tag", "antenna", "rss_dbm", "phase_rad",
               "detected", "start", "count")
    return replace(log, **{name: getattr(log, name)[keep] for name in columns})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), label=st.sampled_from(["SL", "RAC", "2HIC"]),
       misdetect=st.sampled_from([0.0, 0.5]), missing_first=st.sampled_from([0, 1, 4]),
       residual_phase=st.booleans(), tuned=st.booleans())
@example(seed=1, label="SL", misdetect=0.0, missing_first=0, residual_phase=False, tuned=False)
@example(seed=2, label="SL", misdetect=0.5, missing_first=0, residual_phase=False, tuned=False)
@example(seed=3, label="RAC", misdetect=0.0, missing_first=4, residual_phase=False, tuned=False)
@example(seed=4, label="2HIC", misdetect=0.0, missing_first=0, residual_phase=True, tuned=False)
@example(seed=5, label="SL", misdetect=0.0, missing_first=0, residual_phase=False, tuned=True)
def test_tracked_sample_matches_two_step_path(seed, label, misdetect, missing_first,
                                              residual_phase, tuned):
    "tracked_sample gives the bits of gesture_sample then attach_tracks on the same log."
    sched = SASSchedule(residual_phase=residual_phase)
    spec = small_spec(windows=12, misdetect_prob=misdetect)
    log = synthesize_gesture(label, GEO, sched, spec, seed=[seed, 0])
    if missing_first:
        log = without_first_windows(log, "tag2", missing_first)
    kalman = KalmanConfig(sigma_theta=0.02, sigma_omega=0.3, sigma_v=0.05) if tuned else None
    music_search = (-0.3, 0.25) if tuned else None
    got = tracked_sample(log, label, GEO, sched, kalman=kalman, music_search=music_search)
    want = two_step_attach_tracks(two_step_gesture_sample(log, label, sched.window_duration_s),
                                  log, GEO, kalman=kalman, schedule=sched,
                                  music_search=music_search)
    assert (got.label, got.tag_ids, got.n_windows) == (want.label, want.tag_ids, want.n_windows)
    assert np.float64(got.dt_s).tobytes() == np.float64(want.dt_s).tobytes()
    for kind in ("rss", "phase", "aoa"):
        assert list(getattr(got, kind)) == list(getattr(want, kind))
        for tag, series in getattr(want, kind).items():
            assert getattr(got, kind)[tag].tobytes() == series.tobytes(), (kind, tag)


@pytest.fixture(scope="module")
def samples():
    return synthesize_dataset(GEO, SCHED, small_spec(samples_per_class=8), seed=5)


class TestExperiments:

    def test_knn_experiment_report(self, samples):
        rep = knn_experiment(samples, "SA", split_seed=0)
        assert rep.classes == ("SL", "SR")
        assert rep.accuracy >= 95.0  # mirrored pair separable from AoA stats

    def test_dtw_experiment_report(self, samples):
        rep = dtw_experiment(samples, "aoa", split_seed=0)
        assert rep.accuracy >= 95.0
        assert rep.counts.sum() == len(rep.classes) * 2  # 2 test samples per class

    def test_wrong_length_series_names_sample(self, samples):
        "DTW names the sample and tag of a bad series, as featurizing for k-NN does."
        bad = list(samples)
        bad[3] = replace(bad[3], aoa={**bad[3].aoa, "tag2": bad[3].aoa["tag2"][:-1]})
        match = (f"sample 3 \\(label '{bad[3].label}'\\): ValueError: tag 'tag2': "
                 "channel 'aoa' has 15 values")
        for experiment in (knn_experiment, dtw_experiment):
            with pytest.raises(SampleFeatureError, match=match):
                experiment(bad, "SA" if experiment is knn_experiment else "aoa")

    def test_other_tags_name_the_sample(self, samples):
        "A sample whose tags differ from sample 0's is named with both tag lists."
        bad = list(samples)
        bad[5] = replace(bad[5], tag_ids=["tag1", "tag3"],
                         **{kind: {"tag1": getattr(bad[5], kind)["tag1"],
                                   "tag3": getattr(bad[5], kind)["tag2"]}
                            for kind in ("rss", "phase", "aoa")})
        match = (f"sample 5 \\(label '{bad[5].label}'\\): ConfigMismatchError: tags "
                 "\\['tag1', 'tag3'\\] differ from sample 0's \\['tag1', 'tag2'\\]")
        for experiment in (knn_experiment, dtw_experiment):
            with pytest.raises(SampleFeatureError, match=match) as info:
                experiment(bad, "SA" if experiment is knn_experiment else "aoa")
            assert info.value.index == 5

    def test_phase_only_confused_on_mirror_pair(self, samples):
        rep = knn_experiment(samples, "SP", split_seed=0)
        assert rep.accuracy < 95.0
