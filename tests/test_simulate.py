import math

import numpy as np
import pytest

from tagtrack.readerlog import read_reader_log, write_reader_log
from tagtrack.simulate import (GESTURE_CLASSES, GestureSpec, OutOfFovError,
                               PathSpec, SASSchedule, SimScene, TagTrajectory,
                               anechoic_scene, build_gesture_spec,
                               gesture_trajectory, lab_scene, paper_geometry,
                               simulate_gesture, simulate_window)

GEO = paper_geometry()


def los_scene(**kwargs):
    return SimScene(GEO, [("tag1", [PathSpec(1.0, 0.0, is_los=True)])], **kwargs)


class TestSASSchedule:
    def test_slot_structure(self):
        # global slot n = 4k + 2(m-1) + (i-1): all four (antenna, tag) combos
        # partition the slot sequence
        sched = SASSchedule(samples_per_window=8)
        slots = {}
        for m in (1, 2):
            for i in (1, 2):
                slots[(m, i)] = sched.global_slots(0, m, i)
        allslots = np.sort(np.concatenate(list(slots.values())))
        np.testing.assert_array_equal(allslots, np.arange(16))
        for (m, i), s in slots.items():
            assert np.all(np.diff(s) == 4)

    def test_each_antenna_gets_half(self):
        sched = SASSchedule(samples_per_window=50)
        assert sched.cols == 25
        assert sched.global_slots(0, 1, 1).size == 25

    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            SASSchedule(samples_per_window=7)
        with pytest.raises(ValueError):
            SASSchedule(samples_per_window=2)

    def test_tx_sequence_constant_by_default(self):
        sched = SASSchedule()
        np.testing.assert_array_equal(sched.tx_sequence(0, 1, 1, 865.7e6),
                                      np.ones(sched.cols))

    def test_tx_sequence_residual_phase(self):
        sched = SASSchedule(sample_period_s=2.5037e-4, residual_phase=True)
        tx = sched.tx_sequence(0, 2, 1, 865.7e6)
        assert np.allclose(np.abs(tx), 1.0)
        assert np.abs(np.diff(np.angle(tx))).max() > 1e-3  # actually varies


class TestSimulateWindow:
    def test_broadside_noiseless_all_ones(self):
        scene = los_scene()
        w = simulate_window(scene, SASSchedule(), [0.0], rng_seed=0)[0]
        np.testing.assert_allclose(w.matrix, np.ones((2, 50)), atol=1e-15)

    def test_fifteen_degree_row_ratio(self):
        scene = los_scene()
        w = simulate_window(scene, SASSchedule(), [math.radians(15.0)], rng_seed=0)[0]
        ratio = w.matrix[1] / w.matrix[0]
        np.testing.assert_allclose(np.angle(ratio), 2.6018, atol=1e-3)
        assert np.ptp(np.angle(ratio)) < 1e-12

    def test_forced_partial_on_antenna2(self):
        scene = los_scene(misdetect_prob=(0.0, 1.0))
        for seed in range(5):
            w = simulate_window(scene, SASSchedule(), [0.0], rng_seed=seed)[0]
            assert not w.complete
            assert np.isnan(w.matrix[1]).all()
            assert np.isfinite(w.matrix[0]).all()

    def test_fully_misdetected_tag_omitted(self):
        scene = los_scene(misdetect_prob=1.0)
        assert simulate_window(scene, SASSchedule(), [0.0], rng_seed=3) == []

    def test_empty_tag_list_rejected(self):
        scene = los_scene()
        scene.tags = []
        with pytest.raises(ValueError):
            simulate_window(scene, SASSchedule(), [], rng_seed=0)

    def test_deterministic_for_seed(self):
        scene = los_scene(noise_var=0.1, misdetect_prob=0.2)
        a = simulate_window(scene, SASSchedule(), [0.1], rng_seed=42)
        b = simulate_window(scene, SASSchedule(), [0.1], rng_seed=42)
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.matrix, wb.matrix)
            assert wa.complete == wb.complete

    def test_noise_scaling(self):
        # sample variance of (noisy - noiseless) matches noise_var within 5%
        sched = SASSchedule(samples_per_window=10_000)
        sigma2 = 0.37
        clean = simulate_window(los_scene(), sched, [0.2], rng_seed=0)[0].matrix
        for seed in (1, 2, 3):
            noisy = simulate_window(los_scene(noise_var=sigma2), sched, [0.2],
                                    rng_seed=seed)[0].matrix
            resid = noisy - clean
            var = float(np.mean(np.abs(resid) ** 2))
            assert var == pytest.approx(sigma2, rel=0.05)

    def test_modulation_gain_scales_amplitude(self):
        full = simulate_window(los_scene(), SASSchedule(), [0.0], rng_seed=0)[0]
        half = simulate_window(los_scene(modulation_gain=0.5), SASSchedule(), [0.0],
                               rng_seed=0)[0]
        np.testing.assert_allclose(half.matrix, 0.5 * full.matrix, atol=1e-15)

    def test_nlos_must_be_weaker(self):
        with pytest.raises(ValueError):
            SimScene(GEO, [("t", [PathSpec(1.0, 0.0, is_los=True),
                                  PathSpec(2.0, 0.1, is_los=False)])])
        with pytest.raises(ValueError):
            SimScene(GEO, [("t", [PathSpec(1.0, 0.1, is_los=False)])])


class TestTrajectories:
    def test_sl_is_monotone_negative_to_positive(self):
        rng = np.random.default_rng(0)
        spec = build_gesture_spec("SL", rng, windows=30)
        series = gesture_trajectory(spec, 0)
        assert np.all(np.diff(series) > 0)
        assert series[0] < 0 < series[-1]

    @pytest.mark.parametrize("pair", [("SL", "SR"), ("LAC", "RAC"),
                                      ("2HLR", "2HLD"), ("2HIC", "2HOC")])
    def test_mirror_pairs_exact_negation(self, pair):
        base, mirror = pair
        for seed in range(5):
            a = build_gesture_spec(base, np.random.default_rng(seed), windows=20)
            b = build_gesture_spec(mirror, np.random.default_rng(seed), windows=20)
            for tag in range(2):
                np.testing.assert_array_equal(gesture_trajectory(b, tag),
                                              -gesture_trajectory(a, tag))

    def test_constant_trajectory(self):
        spec = GestureSpec("hold", (TagTrajectory("const", (0.1,)),), 1.0, 12)
        np.testing.assert_array_equal(gesture_trajectory(spec, 0), np.full(12, 0.1))

    def test_out_of_range_tag_index(self):
        spec = build_gesture_spec("SL", np.random.default_rng(0))
        with pytest.raises(IndexError):
            gesture_trajectory(spec, 5)

    def test_all_classes_inside_fov(self):
        from tagtrack.geometry import unambiguous_fov
        fov = unambiguous_fov(GEO)
        for cls in GESTURE_CLASSES:
            for seed in range(10):
                spec = build_gesture_spec(cls, np.random.default_rng(seed), windows=40)
                for tag in range(2):
                    assert np.abs(gesture_trajectory(spec, tag)).max() < fov


    def test_fov_shift_only_moves_specs_outside_fov(self):
        from tagtrack.geometry import unambiguous_fov
        fov = unambiguous_fov(GEO)
        shifted = 0
        # seeds 3110, 3269 and 5292 draw a 2HLR/2HLD offset past the FOV
        for cls in GESTURE_CLASSES:
            for seed in [*range(300), 3110, 3269, 5292]:
                rng_plain, rng_fit = np.random.default_rng(seed), np.random.default_rng(seed)
                plain = build_gesture_spec(cls, rng_plain)
                fitted = build_gesture_spec(cls, rng_fit, fov=fov)
                assert rng_plain.random() == rng_fit.random()  # no extra draw
                before = np.concatenate([gesture_trajectory(plain, t) for t in range(2)])
                after = np.concatenate([gesture_trajectory(fitted, t) for t in range(2)])
                if np.abs(before).max() <= fov:
                    assert fitted == plain
                else:
                    shifted += 1
                    assert np.abs(after).max() <= fov
                    assert np.ptp(after - before) < 1e-12  # one common offset shift
        assert shifted == 6


class TestSimulateGesture:
    def _scene(self, **kw):
        tags = [("tag1", [PathSpec(1.0, 0.0, is_los=True)]),
                ("tag2", [PathSpec(1.0, 0.0, is_los=True)])]
        return SimScene(GEO, tags, **kw)

    def test_truth_sidecar_matches_trajectory(self):
        spec = build_gesture_spec("SL", np.random.default_rng(1), windows=10)
        sample, log = simulate_gesture(spec, self._scene(), SASSchedule(), rng_seed=5)
        for i, tag in enumerate(sample.tag_ids):
            np.testing.assert_array_equal(log.truth[tag], gesture_trajectory(spec, i))

    def test_missing_mask_deterministic(self):
        spec = build_gesture_spec("SL", np.random.default_rng(1), windows=15)
        scene = self._scene(misdetect_prob=0.2, noise_var=0.01)
        _, log_a = simulate_gesture(spec, scene, SASSchedule(), rng_seed=9)
        _, log_b = simulate_gesture(spec, scene, SASSchedule(), rng_seed=9)
        mask_a = [(r.window_idx, r.tag_id, r.antenna, r.detected) for r in log_a.records]
        mask_b = [(r.window_idx, r.tag_id, r.antenna, r.detected) for r in log_b.records]
        assert mask_a == mask_b

    def test_two_tags_present_in_log(self):
        spec = build_gesture_spec("2HLR", np.random.default_rng(2), windows=10)
        _, log = simulate_gesture(spec, self._scene(), SASSchedule(), rng_seed=1)
        assert sorted(log.tag_ids) == ["tag1", "tag2"]

    def test_fov_violation_rejected(self):
        spec = GestureSpec("bad", (TagTrajectory("const", (math.radians(30),)),
                                   TagTrajectory("const", (0.0,))), 1.0, 10)
        with pytest.raises(OutOfFovError):
            simulate_gesture(spec, self._scene(), SASSchedule(), rng_seed=0)

    def test_log_roundtrip_bit_identical(self, tmp_path):
        spec = build_gesture_spec("LAC", np.random.default_rng(3), windows=8)
        scene = self._scene(noise_var=0.1, misdetect_prob=0.1)
        _, log = simulate_gesture(spec, scene, SASSchedule(), rng_seed=4)
        write_reader_log(log, tmp_path)
        back = read_reader_log(tmp_path)
        assert len(back.records) == len(log.records)
        for ra, rb in zip(log.records, back.records):
            assert (ra.window_idx, ra.tag_id, ra.antenna, ra.detected) == \
                   (rb.window_idx, rb.tag_id, rb.antenna, rb.detected)
            if ra.detected:
                np.testing.assert_array_equal(ra.iq, rb.iq)
        for tag in log.truth:
            np.testing.assert_allclose(back.truth[tag], log.truth[tag], atol=1e-12)


class TestCannedScenes:
    def test_anechoic_snr_sets_noise(self):
        scene = anechoic_scene(GEO, 20.0)
        assert scene.noise_var == pytest.approx(0.01)
        assert len(scene.tags[0][1]) == 1

    def test_lab_scene_has_nlos(self):
        scene = lab_scene(GEO, 20.0, np.random.default_rng(0))
        paths = scene.tags[0][1]
        assert paths[0].is_los and len(paths) >= 2
        assert all(abs(p.gain) < 1.0 for p in paths[1:])
