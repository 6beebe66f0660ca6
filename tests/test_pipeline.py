from dataclasses import replace

import numpy as np
import pytest
from logfiles import records
from scenes import anechoic_scene
from test_geometry import paper_geometry

from tagtrack.features import SampleFeatureError
from tagtrack.geometry import unambiguous_fov
from tagtrack.pipeline import (DatasetSpec, attach_tracks, dtw_experiment,
                               knn_experiment, series_bundles, synthesize_dataset,
                               synthesize_fixed_log, synthesize_gesture)
from tagtrack.simulate import SASSchedule, simulate_log
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
        sample, _ = synthesize_gesture("2HLR", GEO, SCHED, DatasetSpec(), seed=[dataset, 4, 28])
        fov = unambiguous_fov(GEO)
        assert all(np.abs(series).max() <= fov for series in sample.truth.values())

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
        _, log_a = synthesize_gesture("SL", GEO, SCHED, spec, seed=[1, 0, 0])
        _, log_b = synthesize_gesture("SL", GEO, SCHED, spec, seed=[1, 0, 0])
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

    def test_attach_tracks_fills_aoa_near_truth(self):
        spec = small_spec(misdetect_prob=0.0, snr_db=25.0, nlos_paths=0)
        sample, log = synthesize_gesture("SL", GEO, SCHED, spec, seed=[3, 0, 0])
        attach_tracks(sample, log, GEO)
        for tag in sample.tag_ids:
            aoa = sample.aoa[tag]
            assert np.isfinite(aoa).all()
            err = np.degrees(np.abs(aoa - sample.truth[tag]))
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
