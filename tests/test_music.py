import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_geometry import ScenePose, aoa_from_positions, paper_geometry, steering_vector
from test_simulate import simulate_at

from tagtrack import music
from tagtrack.geometry import ArrayGeometry, steering_phase, unambiguous_fov
from tagtrack.music import (SPECTRUM_FLOOR, default_search_range, eig2_hermitian,
                            estimate_aoa, music_spectrum, sample_covariance, spectrum_peaks)
from tagtrack.preprocess import IQWindow
from tagtrack.simulate import PathSpec, SASSchedule, SimScene, anechoic_scene, lab_scene

GEO = paper_geometry()
SCHED = SASSchedule()


def make_window(matrix, idx=0):
    return IQWindow("t", idx, np.asarray(matrix, dtype=complex), 0.0)


def noiseless_window(theta, n=50, gain=1.0):
    scene = SimScene(GEO, [("t", [PathSpec(gain, 0.0, is_los=True)])])
    return simulate_at(scene, SASSchedule(samples_per_window=2 * n), [theta], 0)[0]


class TestSampleCovariance:
    def test_all_ones(self):
        cov = sample_covariance(make_window([[1, 1], [1, 1]]))
        assert cov.shape == (2, 2)
        np.testing.assert_allclose(cov, [[1, 1], [1, 1]], atol=1e-15)

    def test_identity_pair(self):
        cov = sample_covariance(make_window([[1, 0], [0, 1]]))
        np.testing.assert_allclose(cov, 0.5 * np.eye(2), atol=1e-15)

    def test_offdiagonal_phase_at_15deg(self):
        w = noiseless_window(math.radians(15.0))
        cov = sample_covariance(w)
        assert np.angle(cov[0, 1]) == pytest.approx(-2.6018, abs=1e-3)

    def test_hermitian_psd_and_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20))
            r = sample_covariance(make_window(y))
            assert abs(r[0, 1] - np.conj(r[1, 0])) < 1e-12 * np.abs(r).max()
            eig = eig2_hermitian(r)
            assert eig.lam_n >= -1e-10 * np.trace(r).real
            # trace equals squared Frobenius norm over snapshot count
            assert np.trace(r).real == pytest.approx(
                np.linalg.norm(y) ** 2 / y.shape[1], rel=1e-9)

    def test_incomplete_window_rejected(self):
        "A NaN-filled lost row reaches R[1, 0], so the window yields no angle."
        w = make_window([[1, 1], [np.nan, np.nan]], idx=7)
        assert not cmath.isfinite(sample_covariance(w)[1, 0])
        with pytest.raises(ValueError, match="tag 't' window 7"):
            estimate_aoa(w, GEO)


def ref_eig2(r):
    "The numpy-array form of eig2_hermitian, kept to pin its bits."
    scale = float(np.abs(r).max()) or 1.0
    a, c, b = r[0, 0].real, r[1, 1].real, r[0, 1]
    disc = math.hypot(a - c, 2.0 * abs(b))
    lam_s, lam_n = 0.5 * (a + c + disc), 0.5 * (a + c - disc)
    if abs(b) > 1e-15 * scale:
        u_s = np.array([b, lam_s - a])
        u_s = u_s / np.linalg.norm(u_s)
    else:
        u_s = np.array([1.0 + 0.0j, 0.0j]) if a >= c else np.array([0.0j, 1.0 + 0.0j])
    return lam_s, lam_n, u_s, np.array([-np.conj(u_s[1]), np.conj(u_s[0])])


@st.composite
def snapshot_matrices(draw):
    "2 x n snapshots: independent rows, rank one, one row silent, any scale."
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    kind = draw(st.sampled_from(["full", "rank1", "silent"]))
    if kind == "rank1":
        y[1] = y[0] * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
    elif kind == "silent":
        y[draw(st.integers(0, 1))] = 0.0
    return y * 10.0 ** draw(st.floats(-8, 8))


@settings(max_examples=300, deadline=None)
@given(y=snapshot_matrices(), theta=st.floats(-0.3, 0.3))
def test_eig2_matches_numpy_reference_bitwise(y, theta):
    cov = sample_covariance(make_window(y))
    eig = eig2_hermitian(cov)
    lam_s, lam_n, u_s, u_n = ref_eig2(cov)
    assert (eig.lam_s, eig.lam_n) == (lam_s, lam_n)
    assert eig.u_s.tobytes() == u_s.tobytes() and eig.u_n.tobytes() == u_n.tobytes()
    assert music_spectrum(theta, eig.u_n, GEO) == music_spectrum(theta, u_n, GEO)


def ref_music_spectrum(theta, noise_vec, geometry):
    "The complex-arithmetic music_spectrum, kept to pin the bits of the peak."
    phase = steering_phase(np.asarray(theta, dtype=float), geometry)
    proj = noise_vec[0] + np.exp(-1j * phase) * noise_vec[1]
    out = 1.0 / np.maximum(np.abs(proj) ** 2, SPECTRUM_FLOOR)
    return float(out) if np.isscalar(theta) else out


def spectrum_peak(m, geometry) -> float:
    "One measurement's peak, evaluated on its own as the reference for spectrum_peaks."
    return ref_music_spectrum(m.theta_hat, eig2_hermitian(m.covariance).u_n, geometry)


def ref_estimate_aoa(window, geometry, search=None, tx_sequence=None):
    """The eager estimate_aoa, kept to pin the bits of the angle and the peak.

    Returns (theta_hat, spectrum_peak, window_idx).
    """
    if search is None:
        search = default_search_range(geometry)
    lo, hi = search
    fov = unambiguous_fov(geometry) + 1e-12
    if not lo < hi:
        raise ValueError("search range must satisfy theta_min < theta_max")
    if abs(lo) > fov or abs(hi) > fov:
        raise ValueError("search range must lie within the unambiguous field of view")
    w = window
    if tx_sequence is not None:
        w = IQWindow(window.tag_id, window.window_idx, window.matrix / tx_sequence,
                     window.midpoint_time_s)
    cov = sample_covariance(w)
    if not np.isfinite(cov).all():
        raise ValueError(f"tag {window.tag_id!r} window {window.window_idx}: snapshot "
                         "covariance is not finite (a NaN, infinite or overflowing IQ value)")
    eig = eig2_hermitian(cov)
    sin_theta = cmath.phase(cov[1, 0]) / \
        (4.0 * math.pi * geometry.element_spacing_m / geometry.wavelength_m)
    theta = math.asin(sin_theta) if abs(sin_theta) <= 1.0 else math.nan
    if not lo <= theta <= hi:
        # one endpoint at a time: on an array the complex product may fuse
        # multiply-adds, and a near tie would then pick the other endpoint
        ends = [ref_music_spectrum(t, eig.u_n, geometry) for t in (lo, hi)]
        theta = (lo, hi)[int(np.argmax(ends))]
    return float(theta), ref_music_spectrum(theta, eig.u_n, geometry), window.window_idx


# the paper's array, and one spaced under lambda/4, whose arg R[1, 0] can map
# past sin = +-1 (no angle: the endpoint branch)
GEOMETRIES = [GEO, ArrayGeometry(GEO.carrier_freq_hz, GEO.wavelength_m / 8)]


@st.composite
def search_ranges(draw, geometry):
    "None (the default range) or lo < hi inside the field of view, often narrow."
    if draw(st.booleans()):
        return None
    fov = unambiguous_fov(geometry)
    lo = draw(st.floats(-fov, fov))
    hi = draw(st.floats(lo, fov).filter(lambda h: h > lo))
    return lo, hi


@st.composite
def aoa_cases(draw):
    "A window (sometimes with a NaN-filled lost row), geometry, search range, maybe a tx sequence."
    y = draw(snapshot_matrices())
    geometry = draw(st.sampled_from(GEOMETRIES))
    if not (draw(st.booleans()) or draw(st.booleans())):
        y[draw(st.integers(0, 1))] = np.nan
    tx = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        tx = np.exp(1j * rng.uniform(-math.pi, math.pi, size=y.shape))
    window = make_window(y, idx=draw(st.integers(0, 10 ** 6)))
    return window, geometry, draw(search_ranges(geometry)), tx


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=400, deadline=None)
@given(case=aoa_cases())
# endpoints one ulp apart, whose pseudospectra the vectorized complex product rounds apart
@example(case=(make_window([[2.94 + 0.28j, 5.47 - 7.36j], [-1.63 - 4.82j, 5.99 + 0.4j]]),
               GEO, (-0.058, -0.057999999999999996), None))
def test_estimate_aoa_matches_eager_reference_bitwise(case):
    window, geometry, search, tx = case
    try:
        theta, peak, idx = ref_estimate_aoa(window, geometry, search=search, tx_sequence=tx)
    except ValueError as e:  # the reference's refusals hold too
        with pytest.raises(ValueError, match=re.escape(str(e))):
            estimate_aoa(window, geometry, search=search, tx_sequence=tx)
        return
    m = estimate_aoa(window, geometry, search=search, tx_sequence=tx)
    assert m.window_idx == idx
    assert bits(m.theta_hat) == bits(theta)
    assert bits(spectrum_peaks([m], geometry)[0]) == bits(peak)


@settings(max_examples=300, deadline=None)
@given(y=snapshot_matrices(), row=st.integers(0, 1), col=st.integers(0, 59),
       part=st.sampled_from(["real", "imag"]),
       bad=st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200]),
       idx=st.integers(0, 10 ** 6), with_tx=st.booleans())
def test_nonfinite_iq_rejected(y, row, col, part, bad, idx, with_tx):
    "One NaN, infinite or overflowing IQ value anywhere in Y raises, naming tag and window."
    z = y[row, col % y.shape[1]]
    y[row, col % y.shape[1]] = complex(bad, z.imag) if part == "real" else complex(z.real, bad)
    tx = np.exp(1j * np.linspace(-3.0, 3.0, y.size)).reshape(y.shape) if with_tx else None
    # no numpy warning first: filterwarnings = error would turn it into the failure
    with pytest.raises(ValueError, match=f"tag 't' window {idx}: .*not finite"):
        estimate_aoa(make_window(y, idx=idx), GEO, tx_sequence=tx)


@settings(max_examples=100, deadline=None)
@given(geometry=st.sampled_from(GEOMETRIES),
       windows=st.lists(snapshot_matrices(), max_size=24),
       search=st.none() | st.just((-0.05, 0.05)))
def test_spectrum_peaks_match_per_window_bitwise(geometry, windows, search):
    "The peaks of all windows at once are each window's own, bit for bit."
    ms = [estimate_aoa(make_window(y), geometry, search=search) for y in windows]
    got = spectrum_peaks(ms, geometry)
    assert got.shape == (len(ms),)
    assert [bits(p) for p in got.tolist()] == [bits(spectrum_peak(m, geometry)) for m in ms]


def test_in_range_window_skips_subspace_work(monkeypatch):
    "An angle inside the search range comes from arg R[1, 0] alone."
    def called(*args, **kwargs):
        raise AssertionError("subspace work for an in-range window")

    w = noiseless_window(0.1)
    monkeypatch.setattr(music, "eig2_hermitian", called)
    monkeypatch.setattr(music, "music_spectrum", called)
    m = estimate_aoa(w, GEO)
    assert abs(m.theta_hat - 0.1) <= 1e-6


class TestEig2:
    def test_diagonal(self):
        eig = eig2_hermitian(np.diag([2.0, 1.0]).astype(complex))
        assert (eig.lam_s, eig.lam_n) == (2.0, 1.0)
        np.testing.assert_allclose(np.abs(eig.u_s), [1, 0], atol=1e-15)
        np.testing.assert_allclose(np.abs(eig.u_n), [0, 1], atol=1e-15)

    def test_rank_one_ones(self):
        eig = eig2_hermitian(np.ones((2, 2), dtype=complex))
        assert eig.lam_s == pytest.approx(2.0)
        assert eig.lam_n == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(eig.u_s), [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        r = y @ y.conj().T / 8
        e1 = eig2_hermitian(r)
        e2 = eig2_hermitian(3.5 * r)
        assert e2.lam_s == pytest.approx(3.5 * e1.lam_s, rel=1e-12)
        assert e2.lam_n == pytest.approx(3.5 * e1.lam_n, rel=1e-12)
        # eigvecs equal up to phase
        assert abs(abs(np.vdot(e1.u_s, e2.u_s)) - 1) < 1e-12

    def test_eigen_equation_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
            r = y @ y.conj().T / 6
            eig = eig2_hermitian(r)
            np.testing.assert_allclose(r @ eig.u_s, eig.lam_s * eig.u_s, atol=1e-9)
            np.testing.assert_allclose(r @ eig.u_n, eig.lam_n * eig.u_n, atol=1e-9)
            assert abs(np.vdot(eig.u_s, eig.u_n)) <= 1e-12
            assert np.linalg.norm(eig.u_s) == pytest.approx(1.0, abs=1e-12)
            recon = eig.lam_s * np.outer(eig.u_s, eig.u_s.conj()) \
                + eig.lam_n * np.outer(eig.u_n, eig.u_n.conj())
            assert np.linalg.norm(recon - r) <= 1e-9 * np.linalg.norm(r)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eig2_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


class TestSpectrum:
    def test_noiseless_peak_hits_clamp(self):
        w = noiseless_window(math.radians(7.0))
        eig = eig2_hermitian(sample_covariance(w))
        peak = music_spectrum(math.radians(7.0), eig.u_n, GEO)
        assert peak >= 1e12

    def test_unit_steering_noise_vector(self):
        # u_n aligned with the (normalized) steering vector: denominator is
        # |a|^2 = 2, so the spectrum is 0.5 by direct evaluation
        theta = math.radians(5.0)
        a = steering_vector(theta, GEO)
        u_n = a / np.linalg.norm(a)
        assert music_spectrum(theta, u_n, GEO) == pytest.approx(0.5, rel=1e-12)

    def test_alias_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
            eig = eig2_hermitian(sample_covariance(make_window(y)))
            theta = rng.uniform(-0.2, 0.2)
            alias = math.asin(math.sin(theta) + 0.625)
            s1 = music_spectrum(theta, eig.u_n, GEO)
            s2 = music_spectrum(alias, eig.u_n, GEO)
            assert s2 == pytest.approx(s1, rel=1e-9)


class TestEstimateAoA:
    def test_noiseless_zero(self):
        m = estimate_aoa(noiseless_window(0.0), GEO)
        assert abs(math.degrees(m.theta_hat)) <= 0.01

    def test_noiseless_grid_exactness(self):
        for deg in np.arange(-18, 18.01, 0.5):
            m = estimate_aoa(noiseless_window(math.radians(deg)), GEO)
            assert abs(math.degrees(m.theta_hat) - deg) <= 0.01, deg

    def test_incomplete_window_invalid(self):
        "A window with a NaN-filled lost row raises; it never becomes an endpoint angle."
        w = noiseless_window(0.1)
        w.matrix[1] = np.nan
        with pytest.raises(ValueError, match="tag 't' window 0: .*not finite"):
            estimate_aoa(w, GEO)

    def test_anechoic_tolerance(self):
        errs = []
        scene = anechoic_scene(GEO, 20.0)
        for s in range(100):
            w = simulate_at(scene, SCHED, [math.radians(15.0)], [30, s])[0]
            errs.append(abs(math.degrees(estimate_aoa(w, GEO).theta_hat) - 15.0))
        assert np.mean(errs) <= 1.5

    def test_lab_tolerance(self):
        errs = []
        for s in range(100):
            rng = np.random.default_rng([31, s])
            scene = lab_scene(GEO, 20.0, rng)
            w = simulate_at(scene, SCHED, [math.radians(15.0)], [32, s])[0]
            errs.append(abs(math.degrees(estimate_aoa(w, GEO).theta_hat) - 15.0))
        assert np.mean(errs) <= 4.5

    def test_gain_invariance(self):
        rng = np.random.default_rng(5)
        scene = anechoic_scene(GEO, 15.0)
        for s in range(10):
            w = simulate_at(scene, SCHED, [0.15], [33, s])[0]
            c = (rng.normal() + 1j * rng.normal()) or 1.0
            scaled = make_window(c * w.matrix)
            t1 = estimate_aoa(w, GEO).theta_hat
            t2 = estimate_aoa(scaled, GEO).theta_hat
            assert abs(math.degrees(t1 - t2)) <= 1e-4

    def test_search_range_validation(self):
        w = noiseless_window(0.0)
        with pytest.raises(ValueError):
            estimate_aoa(w, GEO, search=(0.2, 0.1))
        with pytest.raises(ValueError):
            estimate_aoa(w, GEO, search=(-1.0, 1.0))  # outside the FOV

    def test_brute_force_oracle(self):
        # the closed-form peak agrees with an exhaustive 0.001-degree grid
        # argmax within one grid step
        fine = np.radians(np.arange(-18, 18.0001, 0.001))
        for s in range(15):
            rng = np.random.default_rng([34, s])
            scene = lab_scene(GEO, 10.0, rng)
            w = simulate_at(scene, SCHED, [rng.uniform(-0.25, 0.25)], [35, s])[0]
            eig = eig2_hermitian(sample_covariance(w))
            sp = music_spectrum(fine, eig.u_n, GEO)
            brute = fine[int(np.argmax(sp))]
            m = estimate_aoa(w, GEO)
            assert abs(math.degrees(m.theta_hat - brute)) <= 0.001

    @pytest.mark.parametrize("true_deg, end", [(15.0, 0), (8.0, 1), (0.0, None)])
    def test_asymmetric_range_oracle(self, true_deg, end):
        # search (-18, 5) deg: at 15 and 8 deg the unconstrained peak lies
        # outside the range but inside the field of view.  The steering phase
        # wraps, so at 15 deg the far endpoint -18 deg wins over 5 deg.
        lo, hi = math.radians(-18.0), math.radians(5.0)
        fine = np.linspace(lo, hi, 23001)  # 0.001-degree steps
        for s in range(10):
            rng = np.random.default_rng([38, s])
            scene = lab_scene(GEO, 10.0, rng)
            w = simulate_at(scene, SCHED, [math.radians(true_deg)], [39, s])[0]
            eig = eig2_hermitian(sample_covariance(w))
            brute = fine[int(np.argmax(music_spectrum(fine, eig.u_n, GEO)))]
            m = estimate_aoa(w, GEO, search=(lo, hi))
            assert abs(math.degrees(m.theta_hat - brute)) <= 0.001
            if end is not None:
                assert m.theta_hat == (lo, hi)[end]
                assert spectrum_peaks([m], GEO)[0] == music_spectrum(m.theta_hat, eig.u_n, GEO)

    def test_two_tag_independence(self):
        errs = {"-15": [], "-10": []}
        for s in range(100):
            scene = anechoic_scene(GEO, 20.0, tag_ids=("A", "B"))
            ws = simulate_at(scene, SCHED,
                             [math.radians(-15.0), math.radians(-10.0)], [36, s])
            errs["-15"].append(abs(math.degrees(estimate_aoa(ws[0], GEO).theta_hat) + 15))
            errs["-10"].append(abs(math.degrees(estimate_aoa(ws[1], GEO).theta_hat) + 10))
        assert np.mean(errs["-15"]) <= 1.5
        assert np.mean(errs["-10"]) <= 1.5

    def test_residual_phase_compensation(self):
        # with the residual carrier phase on, dividing out the known transmit
        # sequence restores the noiseless estimate
        sched = SASSchedule(sample_period_s=2.5037e-4, residual_phase=True)
        scene = SimScene(GEO, [("t", [PathSpec(1.0, 0.0, is_los=True)])])
        theta = math.radians(9.0)
        w = simulate_at(scene, sched, [theta], 0)[0]
        tx = np.vstack([sched.tx_sequence(0, m, 1, GEO.carrier_freq_hz) for m in (1, 2)])
        m = estimate_aoa(w, GEO, tx_sequence=tx)
        assert abs(math.degrees(m.theta_hat) - 9.0) <= 0.01

    def test_consistency_with_positions(self):
        # a tag simulated at a pose is recovered at aoa_from_positions(pose)
        pose = ScenePose((0.0, 0.0), (0.8, 3.0))
        theta = aoa_from_positions(pose)
        assert abs(theta) < unambiguous_fov(GEO)
        w = noiseless_window(theta)
        m = estimate_aoa(w, GEO)
        assert abs(math.degrees(m.theta_hat - theta)) <= 0.01

    def test_snr_monotonicity(self):
        # RMSE is non-increasing in per-sample SNR, 200 trials per point
        rmse = []
        for snr in (0.0, 10.0, 20.0, 30.0):
            scene = anechoic_scene(GEO, snr)
            sq = []
            for s in range(200):
                w = simulate_at(scene, SCHED, [math.radians(15.0)], [37, int(snr), s])[0]
                sq.append((math.degrees(estimate_aoa(w, GEO).theta_hat) - 15.0) ** 2)
            rmse.append(math.sqrt(np.mean(sq)))
        assert all(hi >= lo for hi, lo in zip(rmse[:-1], rmse[1:]))
