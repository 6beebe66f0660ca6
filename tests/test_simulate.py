import math
import re
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from logfiles import ReadRecord, from_records, records
from scenes import anechoic_scene
from test_geometry import paper_geometry, steering_vector

from tagtrack import simulate
from tagtrack.geometry import steering_phase, unambiguous_fov
from tagtrack.preprocess import IQWindow, _snapshot_covariance
from tagtrack.readerlog import read_reader_log, write_reader_log
from tagtrack.simulate import (GESTURE_CLASSES, OutOfFovError, PathSpec, SASSchedule, SimScene,
                               _window_generators, _window_states, gesture_angles, gesture_sample,
                               lab_scene, simulate_log, simulate_window, tag_steering)

GEO = paper_geometry()


# --- reference simulation -------------------------------------------------
# The straightforward per-path, per-row form of simulate_window and
# simulate_log.  The library's versions must reproduce it bit for bit: same
# seeds, same draws in the same order, same arithmetic.

def ref_angle_factor(scene, theta):
    if scene.angle_gain_db == 0.0 and scene.angle_phase_rad == 0.0:
        return 1.0 + 0.0j
    r = min(abs(theta) / unambiguous_fov(scene.geometry), 1.0)
    mag = 10.0 ** (-scene.angle_gain_db * r / 20.0)
    return mag * np.exp(1j * scene.angle_phase_rad * r)


def ref_tag_steering(scene, true_aoa_per_tag, amp):
    """One window's summed steering per tag, as simulate_window once computed it.

    The second elements of every path's steering vector come from one numpy
    evaluation.  Each tag's terms are then added path by path from zero, in
    the scene's path order.
    """
    angles, gains, counts = [], [], []
    for (_, paths), theta in zip(scene.tags, true_aoa_per_tag):
        factor = ref_angle_factor(scene, theta)
        for path in paths:
            angles.append(theta if path.is_los else path.aoa)
            gains.append(path.gain * factor * amp)
        counts.append(len(paths))
    phased = (np.array(gains)
              * np.exp(1j * steering_phase(np.array(angles), scene.geometry))).tolist()
    out, start = [], 0
    for n in counts:
        s0 = s1 = 0j
        for g, gp in zip(gains[start:start + n], phased[start:start + n]):
            s0 += g
            s1 += gp
        out.append(np.array([s0, s1]))
        start += n
    return out


def ref_simulate_window(scene, schedule, true_aoa_per_tag, rng_seed, window_idx=0):
    rng = np.random.default_rng(rng_seed)
    amp = math.sqrt(scene.tx_power) * scene.modulation_gain
    sigma = math.sqrt(scene.noise_var / 2.0)
    cols = schedule.cols
    out = []
    for slot, ((_, paths), theta) in enumerate(zip(scene.tags, true_aoa_per_tag), start=1):
        missing = [rng.random() < scene.misdetect_prob[m] for m in (0, 1)]
        steer = np.zeros(2, dtype=complex)
        factor = ref_angle_factor(scene, theta)
        for path in paths:
            path_theta = theta if path.is_los else path.aoa
            steer += path.gain * factor * amp * steering_vector(path_theta, scene.geometry)
        matrix = np.empty((2, cols), dtype=complex)
        for m in (1, 2):
            tx = schedule.tx_sequence(window_idx, m, min(slot, 2), scene.geometry.carrier_freq_hz)
            noise = rng.normal(scale=sigma, size=cols) + 1j * rng.normal(scale=sigma, size=cols) \
                if sigma > 0 else 0.0
            matrix[m - 1] = steer[m - 1] * tx + noise
        if all(missing):
            continue
        for m in (0, 1):
            if missing[m]:
                matrix[m] = np.nan
        out.append((slot - 1, matrix))
    return out


def ref_simulate_log(scene, schedule, angles, rng_seed):
    tag_ids = scene.tag_ids()
    records = []
    base = list(rng_seed) if isinstance(rng_seed, (list, tuple)) else [rng_seed]
    for t in range(len(angles[0])):
        matrices = dict(ref_simulate_window(scene, schedule, [a[t] for a in angles], [*base, t],
                                            window_idx=t))
        for slot, tag in enumerate(tag_ids, start=1):
            matrix = matrices.get(slot - 1)
            for m in (1, 2):
                t_row = float((schedule.global_slots(t, m, min(slot, 2))
                               * schedule.sample_period_s)[0])
                row = None if matrix is None else matrix[m - 1]
                if row is not None and not np.isnan(row[0].real):
                    mean_iq = complex(np.mean(row))
                    records.append(ReadRecord(t, t_row, tag, m, np.asarray(row),
                                              20.0 * math.log10(abs(mean_iq)),
                                              math.atan2(mean_iq.imag, mean_iq.real), True))
                else:
                    records.append(ReadRecord(t, t_row, tag, m, None, math.nan, math.nan, False))
    records.sort(key=lambda r: r.timestamp_s)
    truth = {tag: np.array(a, dtype=float) for tag, a in zip(tag_ids, angles)}
    return from_records(records, truth=truth).validate()


def iq_window(matrix, window_idx=0, tag_id="t"):
    "A window built by hand, with the snapshot covariance window_segments would give it."
    y = np.asarray(matrix, dtype=complex)
    return IQWindow(tag_id, window_idx, y, 0.0, _snapshot_covariance(y))


def ref_window_draws(rng_seed, n_tags, cols, noise):
    """One window's draws in ref_simulate_window's order, as simulate_window's (u, z) blocks.

    Per tag: the two antennas' uniforms, then with noise on antenna 1's real
    and imaginary normals and antenna 2's.
    """
    rng = np.random.default_rng(rng_seed)
    u, z = [], []
    for _ in range(n_tags):
        u.append([rng.random(), rng.random()])
        if noise:
            z.append([[rng.standard_normal(cols), rng.standard_normal(cols)] for _ in (1, 2)])
    return np.array(u), np.array(z) if noise else None


def simulate_at(scene, schedule, true_aoa_per_tag, rng_seed):
    """The window that draws from ``default_rng(rng_seed)``, its tags at these LoS angles.

    ``rng_seed`` is a list ``[*base, t]`` or an int t (base ``[]``): the
    window is window t of ``simulate_log`` on seed ``base``.  Each tag
    detected on either antenna comes back as an ``iq_window`` whose
    undetected row, if any, is NaN.
    """
    *base, t = rng_seed if isinstance(rng_seed, list) else [rng_seed]
    log = simulate_log(scene, schedule, [np.full(t + 1, theta) for theta in true_aoa_per_tag],
                       base)
    out = []
    for i, (tag_id, _) in enumerate(scene.tags):
        rows = np.flatnonzero((log.window_idx == t) & (log.tag == i) & log.detected).tolist()
        matrix = np.full((2, schedule.cols), np.nan, dtype=complex)
        for k in rows:
            span = log.iq[log.start[k]:log.start[k] + log.count[k]]
            matrix[log.antenna[k] - 1] = span.view(complex)
        if rows:
            out.append(iq_window(matrix, t, tag_id))
    return out


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_logs(got, want):
    assert len(got) == len(want) and got.tag_ids == want.tag_ids
    for a, b in zip(records(got), records(want)):
        assert (a.window_idx, bits(a.timestamp_s), a.tag_id, a.antenna, a.detected) == \
            (b.window_idx, bits(b.timestamp_s), b.tag_id, b.antenna, b.detected)
        assert (bits(a.rss_dbm), bits(a.phase_rad)) == (bits(b.rss_dbm), bits(b.phase_rad))
        assert (a.iq is None) == (b.iq is None)
        if a.iq is not None:
            assert a.iq.dtype == b.iq.dtype and a.iq.tobytes() == b.iq.tobytes()
    assert list(got.truth) == list(want.truth)
    for tag in want.truth:
        assert got.truth[tag].tobytes() == want.truth[tag].tobytes()


ANGLE = st.floats(-0.3, 0.3) | st.sampled_from([0.0, -0.0])
PROB = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def sim_cases(draw):
    "A scene, schedule, per-window LoS angles and seed covering every simulation branch."
    tags = []
    for tag_id in ("tag1", "tag2")[:draw(st.integers(1, 2))]:
        los = draw(st.floats(0.2, 2.0)) * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
        los_gain = draw(st.sampled_from([1.0, complex(los)]) | st.just(np.complex128(los)))
        paths = [PathSpec(los_gain, 0.0, is_los=True)]
        for _ in range(draw(st.integers(0, 2))):
            mag = abs(los_gain) * draw(st.floats(0.01, 0.9))
            paths.append(PathSpec(mag * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0))),
                                  draw(ANGLE), is_los=False))
        tags.append((tag_id, paths))
    scene = SimScene(
        GEO, tags, tx_power=draw(st.sampled_from([1.0, 4.0]) | st.floats(0.1, 10.0)),
        noise_var=draw(st.sampled_from([0.0, 0.1]) | st.floats(1e-6, 2.0)),
        misdetect_prob=(draw(PROB), draw(PROB)),
        modulation_gain=draw(st.sampled_from([1.0, 0.5]) | st.floats(0.05, 1.0)),
        angle_gain_db=draw(st.sampled_from([0.0, 2.5]) | st.floats(-6.0, 6.0)),
        angle_phase_rad=draw(st.sampled_from([0.0, 1.2]) | st.floats(-3.0, 3.0)))
    schedule = SASSchedule(samples_per_window=2 * draw(st.integers(2, 30)),
                           sample_period_s=draw(st.sampled_from([2.5e-4, 2.5037e-4])),
                           residual_phase=draw(st.booleans()))
    windows = draw(st.integers(1, 40))
    angles = [np.array(draw(st.lists(ANGLE, min_size=windows, max_size=windows)))
              for _ in tags]
    # seeds of 2**32 and above are more than one SeedSequence word; with 4 or more words
    # before the window's, as gesture logs' [seed, c, i, 1], the window's word is mixed in
    # after the pool
    seed = draw(st.lists(st.integers(0, 2 ** 32 - 1) | st.integers(2 ** 32, 2 ** 70),
                         min_size=1, max_size=5))
    return scene, schedule, angles, seed


@settings(max_examples=150, deadline=None)
@given(case=sim_cases(), chunk=st.integers(1, 7) | st.just(simulate._ASSEMBLY_CHUNK))
def test_simulation_matches_reference_bitwise(case, chunk):
    "Logs and each window's draws are the references', whatever the chunks of the assembly."
    scene, schedule, angles, seed = case
    with mock.patch.object(simulate, "_ASSEMBLY_CHUNK", chunk):
        got = simulate_log(scene, schedule, angles, seed)
    assert_same_logs(got, ref_simulate_log(scene, schedule, angles, seed))
    n_tags, cols, noise = len(scene.tags), schedule.cols, scene.noise_var / 2.0 > 0.0
    u, z = np.empty((n_tags, 2)), np.empty((n_tags, 2, 2, cols))
    for t, rng in enumerate(_window_generators(seed, len(angles[0]))):
        simulate_window(rng, u, z if noise else None)
        want_u, want_z = ref_window_draws([*seed, t], n_tags, cols, noise)
        assert u.tobytes() == want_u.tobytes()
        assert not noise or z.tobytes() == want_z.tobytes()


WORD = st.sampled_from([0, 2 ** 32 - 1]) | st.integers(0, 2 ** 32 - 1)


@settings(max_examples=300, deadline=None)
@given(base=st.lists(WORD | st.integers(2 ** 32, 2 ** 130), max_size=7),
       windows=st.integers(1, 4))
def test_window_states_match_pcg64(base, windows):
    """Each window's derived state is numpy's PCG64 seeded with the row [*base, t].

    Rows are 1-8 ints; one of 2**32 or more is several words.  A numpy whose
    seeding differs fails here.
    """
    for t, (state, inc) in enumerate(_window_states(base, windows)):
        want = np.random.PCG64([*base, t]).state["state"]
        assert (state, inc) == (want["state"], want["inc"])


@pytest.mark.parametrize("seed", [[3, -1], -2, [1.5], 2.0])
def test_bad_seed_raises_as_numpy_does(seed):
    "A negative or non-integer seed raises what default_rng raises on the window's seed row."
    with pytest.raises((TypeError, ValueError)) as want:
        np.random.default_rng([*(seed if isinstance(seed, list) else [seed]), 0])
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        simulate_log(los_scene(), SASSchedule(), [np.zeros(2)], seed)


@settings(max_examples=150, deadline=None)
@given(case=sim_cases(), unit_factor=st.booleans())
def test_tag_steering_matches_reference_bitwise(case, unit_factor):
    scene, _, angles, _ = case
    if unit_factor:
        scene = replace(scene, angle_gain_db=0.0, angle_phase_rad=0.0)
    amp = math.sqrt(scene.tx_power) * scene.modulation_gain
    steering = tag_steering(scene, angles)
    assert steering.shape == (len(angles[0]), len(scene.tags), 2)
    for t, rows in enumerate(steering):
        want = np.array(ref_tag_steering(scene, [a[t] for a in angles], amp))
        assert rows.tobytes() == want.tobytes()


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
        w = simulate_at(scene, SASSchedule(), [0.0], rng_seed=0)[0]
        np.testing.assert_allclose(w.matrix, np.ones((2, 50)), atol=1e-15)

    def test_fifteen_degree_row_ratio(self):
        scene = los_scene()
        w = simulate_at(scene, SASSchedule(), [math.radians(15.0)], rng_seed=0)[0]
        ratio = w.matrix[1] / w.matrix[0]
        np.testing.assert_allclose(np.angle(ratio), 2.6018, atol=1e-3)
        assert np.ptp(np.angle(ratio)) < 1e-12

    def test_forced_partial_on_antenna2(self):
        scene = los_scene(misdetect_prob=(0.0, 1.0))
        for seed in range(5):
            w = simulate_at(scene, SASSchedule(), [0.0], rng_seed=seed)[0]
            assert np.isnan(w.matrix[1]).all()
            assert np.isfinite(w.matrix[0]).all()

    def test_fully_misdetected_tag_omitted(self):
        scene = los_scene(misdetect_prob=1.0)
        assert simulate_at(scene, SASSchedule(), [0.0], rng_seed=3) == []

    def test_empty_tag_list_rejected(self):
        scene = los_scene()
        scene.tags = []
        with pytest.raises(ValueError, match="scene has no tags"):
            simulate_log(scene, SASSchedule(), [], 0)

    def test_three_tags_rejected(self):
        scene = los_scene()
        scene.tags = scene.tags * 3
        with pytest.raises(ValueError, match="serves at most two tags"):
            simulate_log(scene, SASSchedule(), [np.zeros(2)] * 3, 0)

    def test_deterministic_for_seed(self):
        scene = los_scene(noise_var=0.1, misdetect_prob=0.2)
        a = simulate_at(scene, SASSchedule(), [0.1], rng_seed=42)
        b = simulate_at(scene, SASSchedule(), [0.1], rng_seed=42)
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.matrix, wb.matrix)   # NaN-filled rows alike

    def test_noise_scaling(self):
        # sample variance of (noisy - noiseless) matches noise_var within 5%
        sched = SASSchedule(samples_per_window=10_000)
        sigma2 = 0.37
        clean = simulate_at(los_scene(), sched, [0.2], rng_seed=0)[0].matrix
        for seed in (1, 2, 3):
            noisy = simulate_at(los_scene(noise_var=sigma2), sched, [0.2],
                                rng_seed=seed)[0].matrix
            resid = noisy - clean
            var = float(np.mean(np.abs(resid) ** 2))
            assert var == pytest.approx(sigma2, rel=0.05)

    def test_modulation_gain_scales_amplitude(self):
        full = simulate_at(los_scene(), SASSchedule(), [0.0], rng_seed=0)[0]
        half = simulate_at(los_scene(modulation_gain=0.5), SASSchedule(), [0.0],
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
        series = gesture_angles("SL", rng, 30, math.inf)[0]
        assert np.all(np.diff(series) > 0)
        assert series[0] < 0 < series[-1]

    @pytest.mark.parametrize("pair", [("SL", "SR"), ("LAC", "RAC"),
                                      ("2HLR", "2HLD"), ("2HIC", "2HOC")])
    def test_mirror_pairs_exact_negation(self, pair):
        base, mirror = pair
        for seed in range(5):
            a = gesture_angles(base, np.random.default_rng(seed), 20, math.inf)
            b = gesture_angles(mirror, np.random.default_rng(seed), 20, math.inf)
            np.testing.assert_array_equal(b, -a)

    def test_all_classes_inside_fov(self):
        fov = unambiguous_fov(GEO)
        for cls in GESTURE_CLASSES:
            for seed in range(10):
                angles = gesture_angles(cls, np.random.default_rng(seed), 40, math.inf)
                assert angles.shape == (2, 40)
                assert np.abs(angles).max() < fov

    def test_fov_shift_only_moves_specs_outside_fov(self):
        fov = unambiguous_fov(GEO)
        shifted = 0
        # seeds 3110, 3269 and 5292 draw a 2HLR/2HLD offset past the FOV
        for cls in GESTURE_CLASSES:
            for seed in [*range(300), 3110, 3269, 5292]:
                rng_plain, rng_fit = np.random.default_rng(seed), np.random.default_rng(seed)
                before = gesture_angles(cls, rng_plain, 24, math.inf)
                after = gesture_angles(cls, rng_fit, 24, fov)
                assert rng_plain.random() == rng_fit.random()  # no extra draw
                if np.abs(before).max() <= fov:
                    np.testing.assert_array_equal(after, before)
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
        angles = gesture_angles("SL", np.random.default_rng(1), 10, math.inf)
        log = simulate_log(self._scene(), SASSchedule(), list(angles), 5)
        sample = gesture_sample(log, "SL", SASSchedule().window_duration_s)
        for i, tag in enumerate(sample.tag_ids):
            np.testing.assert_array_equal(log.truth[tag], angles[i])

    def test_missing_mask_deterministic(self):
        angles = gesture_angles("SL", np.random.default_rng(1), 15, math.inf)
        scene = self._scene(misdetect_prob=0.2, noise_var=0.01)
        log_a = simulate_log(scene, SASSchedule(), list(angles), 9)
        log_b = simulate_log(scene, SASSchedule(), list(angles), 9)
        mask_a = [(r.window_idx, r.tag_id, r.antenna, r.detected) for r in records(log_a)]
        mask_b = [(r.window_idx, r.tag_id, r.antenna, r.detected) for r in records(log_b)]
        assert mask_a == mask_b

    def test_two_tags_present_in_log(self):
        angles = gesture_angles("2HLR", np.random.default_rng(2), 10, math.inf)
        log = simulate_log(self._scene(), SASSchedule(), list(angles), 1)
        assert sorted(log.tag_ids) == ["tag1", "tag2"]

    def test_fov_violation_rejected(self):
        # 2HLR's tags span about 28 deg, which no offset fits into +-5 deg
        with pytest.raises(OutOfFovError, match=r"^tag 0 trajectory reaches \d+\.\d deg, "
                                                r"outside the \+-5\.0 deg field of view$"):
            gesture_angles("2HLR", np.random.default_rng(0), 10, math.radians(5.0))

    def test_log_roundtrip_bit_identical(self, tmp_path):
        angles = gesture_angles("LAC", np.random.default_rng(3), 8, math.inf)
        scene = self._scene(noise_var=0.1, misdetect_prob=0.1)
        log = simulate_log(scene, SASSchedule(), list(angles), 4)
        write_reader_log(log, tmp_path)
        back = read_reader_log(tmp_path)
        assert len(back) == len(log)
        for ra, rb in zip(records(log), records(back)):
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
