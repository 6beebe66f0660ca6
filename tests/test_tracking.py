import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from logfiles import ReadRecord, from_records
from scenes import anechoic_scene
from test_geometry import paper_geometry
from test_simulate import simulate_at

from tagtrack.pipeline import (DatasetSpec, synthesize_fixed_log, synthesize_gesture,
                               truth_on_track)
from tagtrack.simulate import SASSchedule, lab_scene, simulate_log
from tagtrack.tracking import KalmanConfig, filter_sequence, rts_smooth, track_aoa

GEO = paper_geometry()

# The scalar Kalman steps in 2x2 matrix form: the reference that
# filter_sequence and rts_smooth are checked against.

H = np.array([1.0, 0.0])


def f_matrix(cfg: KalmanConfig) -> np.ndarray:
    "Constant-rate transition F = [[1, dt], [0, 1]]."
    return np.array([[1.0, cfg.dt], [0.0, 1.0]])


def q_matrix(cfg: KalmanConfig) -> np.ndarray:
    "Process noise covariance Q = diag(sigma_theta^2, sigma_omega^2)."
    return np.diag([cfg.sigma_theta ** 2, cfg.sigma_omega ** 2])


def _sym(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def predict(state: np.ndarray, cov: np.ndarray, cfg: KalmanConfig):
    "Prior state F x and covariance F P F^T + Q (symmetrized)."
    f = f_matrix(cfg)
    return f @ state, _sym(f @ cov @ f.T + q_matrix(cfg))


def update(prior_state: np.ndarray, prior_cov: np.ndarray, z: float, cfg: KalmanConfig):
    """Measurement update; returns (posterior state, posterior cov, gain)."""
    s = prior_cov[0, 0] + cfg.sigma_v ** 2
    if s <= 0:
        raise FloatingPointError("innovation variance is not positive")
    gain = prior_cov @ H / s
    post = prior_state + gain * (z - prior_state[0])
    post_cov = _sym((np.eye(2) - np.outer(gain, H)) @ prior_cov)
    return post, post_cov, gain


def cfg(dt=1.0, st=0.01, so=0.1, sv=0.035, **kw):
    return KalmanConfig(dt=dt, sigma_theta=st, sigma_omega=so, sigma_v=sv, **kw)


def simulate_linear(T, c, rng, omega0=0.05, theta0=0.0):
    "Linear-Gaussian truth and measurements matched to the filter model."
    x = np.array([theta0, omega0])
    truth = np.empty((T, 2))
    z = np.empty(T)
    for t in range(T):
        x = f_matrix(c) @ x + rng.normal(size=2) * [c.sigma_theta, c.sigma_omega]
        truth[t] = x
        z[t] = x[0] + rng.normal() * c.sigma_v
    return truth, z


def batch_map_oracle(z, valid, c, x0):
    """Dense normal-equations MAP solution of the equivalent least-squares
    problem over x_0..x_T; the RTS smoother must reproduce x_1..x_T."""
    T = z.size
    f = f_matrix(c)
    qi = np.linalg.inv(q_matrix(c))
    p0i = np.linalg.inv(c.p0)
    n = 2 * (T + 1)
    a = np.zeros((n, n))
    b = np.zeros(n)
    a[0:2, 0:2] += p0i
    b[0:2] += p0i @ x0
    r = c.sigma_v ** 2
    for t in range(1, T + 1):
        i0, i1 = 2 * (t - 1), 2 * t
        a[i1:i1 + 2, i1:i1 + 2] += qi
        a[i0:i0 + 2, i0:i0 + 2] += f.T @ qi @ f
        a[i1:i1 + 2, i0:i0 + 2] -= qi @ f
        a[i0:i0 + 2, i1:i1 + 2] -= f.T @ qi
        if valid[t - 1]:
            a[i1, i1] += 1.0 / r
            b[i1] += z[t - 1] / r
    x = np.linalg.solve(a, b)
    return x[2:].reshape(T, 2)


def matrix_reference(z, c):
    """filter_sequence and rts_smooth written with predict/update and 2x2
    matrix algebra: (priors, prior_covs, posts, post_covs, smoothed, smoothed_covs)."""
    valid = np.isfinite(z)
    state, cov = np.array([z[valid][0], 0.0]), c.p0
    priors, prior_covs, posts, post_covs = [], [], [], []
    for t in range(z.size):
        state, cov = predict(state, cov, c)
        priors.append(state)
        prior_covs.append(cov)
        if valid[t]:
            state, cov, _ = update(state, cov, z[t], c)
        posts.append(state)
        post_covs.append(cov)
    xs, ps = list(posts), list(post_covs)
    f = f_matrix(c)
    for t in range(z.size - 2, -1, -1):
        p_pred = prior_covs[t + 1]
        if abs(np.linalg.det(p_pred)) < 1e-300:
            p_pred = p_pred + 1e-12 * np.eye(2)
        g = post_covs[t] @ f.T @ np.linalg.inv(p_pred)
        xs[t] = posts[t] + g @ (xs[t + 1] - priors[t + 1])
        p = post_covs[t] + g @ (ps[t + 1] - prior_covs[t + 1]) @ g.T
        ps[t] = 0.5 * (p + p.T)
    return tuple(np.array(a) for a in (priors, prior_covs, posts, post_covs, xs, ps))


class TestPredict:
    def test_constant_rate_step(self):
        c = cfg(dt=0.5, st=0.0, so=0.0)
        state, cov = predict(np.array([1.0, 2.0]), np.zeros((2, 2)), c)
        np.testing.assert_allclose(state, [2.0, 2.0])

    def test_zero_rate_fixed_point(self):
        c = cfg(dt=0.5, st=0.0, so=0.0)
        state, _ = predict(np.array([0.3, 0.0]), np.eye(2), c)
        np.testing.assert_allclose(state, [0.3, 0.0])

    def test_zero_cov_gives_q(self):
        c = cfg(dt=1.0, st=0.2, so=0.3)
        _, cov = predict(np.zeros(2), np.zeros((2, 2)), c)
        np.testing.assert_allclose(cov, np.diag([0.04, 0.09]))


class TestUpdate:
    def test_gain_half(self):
        c = cfg(sv=1.0)
        _, _, gain = update(np.zeros(2), np.eye(2), 1.0, c)
        np.testing.assert_allclose(gain, [0.5, 0.0])

    def test_uninformative_measurement(self):
        c = cfg(sv=1e6)  # variance 1e12
        prior = np.array([0.2, 0.1])
        post, _, gain = update(prior, np.eye(2), 5.0, c)
        np.testing.assert_allclose(post, prior, atol=1e-5)
        assert abs(gain[0]) < 1e-11

    def test_zero_innovation(self):
        c = cfg()
        prior = np.array([0.7, -0.1])
        post, _, _ = update(prior, np.eye(2), 0.7, c)
        np.testing.assert_array_equal(post, prior)

    def test_gain_bounds(self):
        rng = np.random.default_rng(0)
        c = cfg()
        for _ in range(200):
            m = rng.normal(size=(2, 2))
            cov = m @ m.T + 1e-9 * np.eye(2)
            _, _, gain = update(np.zeros(2), cov, rng.normal(), c)
            assert 0.0 <= gain[0] < 1.0

    def test_joseph_form_equivalence(self):
        rng = np.random.default_rng(1)
        c = cfg()
        h = np.array([1.0, 0.0])
        for _ in range(100):
            m = rng.normal(size=(2, 2))
            p = m @ m.T + 1e-6 * np.eye(2)
            _, post_cov, k = update(np.zeros(2), p, 0.3, c)
            ikh = np.eye(2) - np.outer(k, h)
            joseph = ikh @ p @ ikh.T + np.outer(k, k) * c.sigma_v ** 2
            assert np.linalg.norm(post_cov - joseph) <= 1e-9 * np.linalg.norm(joseph)


class TestFilterSequence:
    def test_noiseless_constant_rate_convergence(self):
        c = cfg(dt=0.5, st=0.0, so=0.0, sv=1e-6)
        t_grid = np.arange(1, 21) * 0.5
        z = 0.1 + 0.2 * t_grid
        track = filter_sequence(z, c)
        for t in range(3, 20):
            assert abs(track.posts[t, 0] - z[t]) <= 1e-6
            assert abs(track.posts[t, 1] - 0.2) <= 1e-6

    def test_missing_measurement_skips_update(self):
        c = cfg()
        z = np.linspace(0, 0.5, 10)
        z[5] = np.nan
        track = filter_sequence(z, c)
        np.testing.assert_array_equal(track.posts[5], track.priors[5])
        np.testing.assert_array_equal(track.post_covs[5], track.prior_covs[5])
        assert track.valid.tolist() == [t != 5 for t in range(10)]

    def test_single_window(self):
        c = cfg()
        track = filter_sequence(np.array([0.3]), c)
        assert track.n_windows == 1
        assert track.valid[0]

    def test_all_missing_low_confidence(self):
        c = cfg()
        track = filter_sequence(np.array([np.nan] * 5), c)
        assert not track.valid.any()
        np.testing.assert_array_equal(track.posts, track.priors)
        np.testing.assert_array_equal(track.post_covs, track.prior_covs)

    def test_deleting_later_measurement_preserves_earlier_estimates(self):
        c = cfg()
        rng = np.random.default_rng(2)
        _, z = simulate_linear(15, c, rng)
        full = filter_sequence(z.copy(), c)
        z2 = z.copy()
        z2[9] = np.nan
        partial = filter_sequence(z2, c)
        np.testing.assert_array_equal(full.posts[:9], partial.posts[:9])
        np.testing.assert_array_equal(full.priors[:10], partial.priors[:10])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            filter_sequence(np.array([]), cfg())


class TestRtsSmooth:
    def test_matches_matrix_reference(self):
        for seed, dt in [(0, 1.0), (1, 0.7), (2, 0.016)]:
            c = cfg(dt=dt)
            rng = np.random.default_rng(seed)
            _, z = simulate_linear(40, c, rng)
            z[rng.random(40) < 0.2] = np.nan
            z[0] = 0.1
            track = rts_smooth(filter_sequence(z, c))
            got = (track.priors, track.prior_covs, track.posts, track.post_covs,
                   track.smoothed, track.smoothed_covs)
            for a, b in zip(got, matrix_reference(z, c)):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_singular_prior_loaded_and_logged(self, caplog):
        # no process noise and an exact initial state: every prior covariance
        # is zero, so the smoother loads its diagonal before inverting
        c = cfg(st=0.0, so=0.0, p0=np.zeros((2, 2)))
        z = 0.01 * np.arange(6.0)
        with caplog.at_level("WARNING", logger="tagtrack.tracking"):
            track = rts_smooth(filter_sequence(z, c))
        assert "singular prior covariance" in caplog.text
        np.testing.assert_allclose(track.smoothed, matrix_reference(z, c)[4],
                                   rtol=0, atol=1e-12)

    def test_single_window_identity(self):
        c = cfg()
        track = rts_smooth(filter_sequence(np.array([0.2]), c))
        np.testing.assert_array_equal(track.smoothed, track.posts)
        np.testing.assert_array_equal(track.smoothed_covs, track.post_covs)

    def test_deterministic_dynamics_exact(self):
        c = cfg(dt=1.0, st=0.0, so=0.0, sv=1e-7)
        z = 0.05 * np.arange(1, 13)
        track = rts_smooth(filter_sequence(z, c))
        np.testing.assert_allclose(track.smoothed[3:, 0], z[3:], atol=1e-6)
        np.testing.assert_allclose(track.smoothed[3:, 0], track.posts[3:, 0], atol=1e-6)

    def test_smoothing_never_inflates_uncertainty(self):
        c = cfg()
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, z = simulate_linear(25, c, rng)
            z[rng.random(25) < 0.2] = np.nan
            track = rts_smooth(filter_sequence(z, c))
            for t in range(25):
                assert np.trace(track.smoothed_covs[t]) <= np.trace(track.post_covs[t]) + 1e-9

    def test_gap_estimate_between_filtered_neighbors(self):
        # monotone trajectory, one interior gap: the smoothed angle at the
        # gap stays between the neighboring filtered angles
        c = cfg(dt=1.0, st=1e-4, so=1e-4, sv=0.005)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            t_grid = np.arange(1, 16)
            z = 0.1 * t_grid + rng.normal(size=15) * 0.005
            z[7] = np.nan
            track = rts_smooth(filter_sequence(z, c))
            lo = track.posts[6, 0]
            hi = track.posts[8, 0]
            assert lo <= track.smoothed[7, 0] <= hi

    def test_batch_map_oracle_fully_observed(self):
        c = cfg(dt=0.7)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            _, z = simulate_linear(20, c, rng)
            track = rts_smooth(filter_sequence(z, c))
            x0 = np.array([z[0], 0.0])
            oracle = batch_map_oracle(z, np.ones(20, bool), c, x0)
            np.testing.assert_allclose(track.smoothed, oracle, atol=1e-8)

    def test_batch_map_oracle_with_gaps(self):
        c = cfg(dt=1.0)
        rng = np.random.default_rng(11)
        _, z = simulate_linear(20, c, rng)
        z[[4, 5, 11]] = np.nan
        track = rts_smooth(filter_sequence(z, c))
        valid = np.isfinite(z)
        x0 = np.array([z[np.nonzero(valid)[0][0]], 0.0])
        oracle = batch_map_oracle(np.nan_to_num(z), valid, c, x0)
        np.testing.assert_allclose(track.smoothed, oracle, atol=1e-8)

    def test_monte_carlo_rmse_ordering(self):
        # aggregate over seeds: smoothed <= filtered <= raw measurement RMSE
        c = cfg(dt=1.0)
        sq = {"raw": 0.0, "filt": 0.0, "smooth": 0.0}
        n = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            truth, z = simulate_linear(20, c, rng)
            track = rts_smooth(filter_sequence(z, c))
            sq["raw"] += float(np.sum((z - truth[:, 0]) ** 2))
            sq["filt"] += float(np.sum((track.posts[:, 0] - truth[:, 0]) ** 2))
            sq["smooth"] += float(np.sum((track.smoothed[:, 0] - truth[:, 0]) ** 2))
            n += 20
        rmse = {k: math.sqrt(v / n) for k, v in sq.items()}
        assert rmse["smooth"] <= rmse["filt"] <= rmse["raw"]


def tracking_rmse(log, geometry) -> dict[str, dict[str, float]]:
    """Raw and smoothed RMSE of each tag's track against ground truth (radians).

    Only windows with a raw measurement enter the raw RMSE; the smoothed
    RMSE covers every tracked window with ground truth.
    """
    out = {}
    for tag, track in track_aoa(log, geometry).items():
        truth = truth_on_track(track, log.truth[tag], log.first_window)
        keep = np.isfinite(truth)
        truth, raw, smooth = truth[keep], track.z[keep], track.smoothed_series()[keep]
        ok = np.isfinite(raw)
        out[tag] = {
            "raw": float(np.sqrt(np.mean((raw[ok] - truth[ok]) ** 2))) if ok.any() else math.nan,
            "smoothed": float(np.sqrt(np.mean((smooth - truth) ** 2))),
        }
    return out


class TestTrackAoA:
    def test_empty_log(self):
        assert track_aoa(from_records([]), GEO) == {}

    def test_nonfinite_iq_fails_naming_window(self):
        "A NaN in a detected row's IQ fails naming the window; it never tracks as an endpoint."
        log = synthesize_fixed_log(GEO, SASSchedule(), DatasetSpec(windows=8),
                                   {"tag1": math.radians(-15.0), "tag2": math.radians(-10.0)},
                                   seed=1)
        row = np.flatnonzero(log.detected)[4]
        log.iq[log.start[row]] = np.nan
        tag = log.tag_ids[log.tag[row]]
        with pytest.raises(ValueError, match=f"tag {tag!r} window {log.window_idx[row]}: "):
            track_aoa(log, GEO)

    def test_infinite_iq_fails_without_warning(self):
        "An infinite IQ value fails naming its window, with no numpy warning before the error."
        recs = [ReadRecord(w, w + 0.1 * a, "tag1", a, np.full(10, 1.0 + 1.0j), 0.0, 0.0, True)
                for w in range(3) for a in (1, 2)]
        recs[3].iq[4] = complex(math.inf, 1.0)   # window 1, antenna 2
        with pytest.raises(ValueError, match="tag 'tag1' window 1: .*not finite"):
            track_aoa(from_records(recs), GEO)

    def test_overflowing_iq_fails_without_warning(self):
        "A finite IQ value whose square overflows R[1, 1] fails naming its window, with no warning."
        recs = [ReadRecord(w, w + 0.1 * a, "tag2", a, np.full(10, 1.0 + 1.0j), 0.0, 0.0, True)
                for w in range(3) for a in (1, 2)]
        recs[1].iq[4] = 1e200 + 1j                # window 0, antenna 2: R[1, 0] stays finite
        with pytest.raises(ValueError, match="tag 'tag2' window 0: .*not finite"):
            track_aoa(from_records(recs), GEO)

    def test_smoothed_beats_raw_on_gestures(self):
        sched = SASSchedule()
        spec = DatasetSpec(samples_per_class=1, misdetect_prob=0.05, snr_db=20.0)
        agg = {"raw": [], "smoothed": []}
        for seed in range(50):
            log = synthesize_gesture("SL", GEO, sched, spec, seed=[40, seed])
            rmse = tracking_rmse(log, GEO)
            for tag in rmse:
                agg["raw"].append(rmse[tag]["raw"] ** 2)
                agg["smoothed"].append(rmse[tag]["smoothed"] ** 2)
        assert math.sqrt(np.mean(agg["smoothed"])) <= math.sqrt(np.mean(agg["raw"]))

    def test_zero_motion_variance_reduction(self):
        sched = SASSchedule()
        stds = {"raw": [], "smoothed": []}
        for seed in range(20):
            rng = np.random.default_rng([41, seed])
            scene = lab_scene(GEO, 20.0, rng)
            records = []
            for t in range(30):
                w = simulate_at(scene, sched, [math.radians(15.0)], [42, seed, t])[0]
                for m in (1, 2):
                    t_row = float(sched.global_slots(t, m, 1)[0]) * sched.sample_period_s
                    records.append(ReadRecord(t, t_row, "tag1", m, w.matrix[m - 1],
                                              0.0, 0.0, True))
            records.sort(key=lambda r: r.timestamp_s)
            log = from_records(records)
            track = track_aoa(log, GEO)["tag1"]
            stds["raw"].append(np.nanstd(track.z))
            stds["smoothed"].append(np.std(track.smoothed_series()))
        assert np.mean(stds["smoothed"]) < np.mean(stds["raw"])

    def test_missing_slots_surface_as_skipped_updates(self):
        sched = SASSchedule()
        spec = DatasetSpec(samples_per_class=1, misdetect_prob=0.3, snr_db=20.0)
        log = synthesize_gesture("SL", GEO, sched, spec, seed=[43, 7])
        tracks = track_aoa(log, GEO)
        found_gap = False
        for tag, track in tracks.items():
            for t in range(track.n_windows):
                if not track.valid[t]:
                    found_gap = True
                    np.testing.assert_array_equal(track.posts[t], track.priors[t])
        assert found_gap

    def test_slots_follow_window_idx(self):
        # a reader counter that does not start at 0, and window 103 read on one antenna
        sched = SASSchedule()
        log = simulate_log(anechoic_scene(GEO, 20.0), sched, [np.full(6, 0.1)], [44])
        log.window_idx += 100
        lost = (log.window_idx == 103) & (log.antenna == 2)
        log.detected[lost], log.count[lost] = False, 0
        track = track_aoa(log, GEO)["tag1"]
        assert track.first_window == 100 and track.n_windows == 6
        assert track.valid.tolist() == [True, True, True, False, True, True]
        assert track.dt == pytest.approx(sched.window_duration_s, rel=1e-12)
        np.testing.assert_allclose(np.diff(track.midpoint_s), sched.window_duration_s,
                                   rtol=1e-12)

    def test_single_window_track(self):
        log = simulate_log(anechoic_scene(GEO, 20.0), SASSchedule(), [np.full(1, 0.1)], [45])
        track = track_aoa(log, GEO)["tag1"]
        assert track.n_windows == 1 and track.dt == 1.0
        times = log.timestamp_s.tolist()
        assert track.midpoint_s.tolist() == [0.5 * (times[0] + times[1])]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), offset_s=st.floats(-2e9, 2e9), p=st.floats(0.0, 0.4),
       windows=st.integers(2, 30))
def test_track_unchanged_under_time_shift(seed, offset_s, p, windows):
    # reader exports stamp rows with wall-clock time; only differences may matter
    scene = lab_scene(GEO, 15.0, np.random.default_rng([46, seed]), tag_ids=("tag1", "tag2"),
                      misdetect_prob=p)
    angles = [np.linspace(-0.2, 0.2, windows), np.full(windows, 0.1)]
    log = simulate_log(scene, SASSchedule(), angles, [47, seed])
    shifted = replace(log, timestamp_s=log.timestamp_s + offset_s)
    plain, moved = track_aoa(log, GEO), track_aoa(shifted, GEO)
    assert list(plain) == list(moved)
    for tag, a in plain.items():
        b = moved[tag]
        assert (a.first_window, a.n_windows) == (b.first_window, b.n_windows)
        np.testing.assert_array_equal(a.valid, b.valid)
        np.testing.assert_array_equal(a.z, b.z)  # measurements do not see time at all
        # dt comes from time differences, which lose about 1e-6 s at 2e9 s
        assert b.dt == pytest.approx(a.dt, rel=1e-4)
        np.testing.assert_allclose(b.smoothed_series(), a.smoothed_series(),
                                   rtol=0, atol=math.radians(0.01))
        np.testing.assert_allclose(b.midpoint_s - offset_s, a.midpoint_s, rtol=0, atol=1e-5)
