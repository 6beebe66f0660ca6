from dataclasses import replace

import numpy as np
import pytest
from logfiles import records
from test_geometry import paper_geometry

from tagtrack.features import SampleFeatureError
from tagtrack.geometry import unambiguous_fov
from tagtrack.pipeline import (DatasetSpec, attach_tracks, dtw_experiment,
                               knn_experiment, series_bundle,
                               synthesize_dataset, synthesize_gesture)
from tagtrack.simulate import SASSchedule

GEO = paper_geometry()
SCHED = SASSchedule()


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
        bundle = series_bundle(samples[0], "aoa")
        assert sorted(bundle) == ["tag1:aoa", "tag2:aoa"]
        assert all(np.isfinite(v).all() for v in bundle.values())


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

    def test_phase_only_confused_on_mirror_pair(self, samples):
        rep = knn_experiment(samples, "SP", split_seed=0)
        assert rep.accuracy < 95.0
