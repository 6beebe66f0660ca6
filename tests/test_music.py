import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logfiles import ReadRecord, from_records
from scenes import anechoic_scene
from test_geometry import ScenePose, aoa_from_positions, paper_geometry, steering_vector
from test_simulate import iq_window, simulate_at

from tagtrack import music
from tagtrack.geometry import ArrayGeometry, steering_phase, unambiguous_fov
from tagtrack.music import (SPECTRUM_FLOOR, _eig2_stack, estimate_aoa, music_spectrum,
                            search_range, spectrum_peaks)
from tagtrack.preprocess import _snapshot_covariance, windows_by_tag
from tagtrack.simulate import PathSpec, SASSchedule, SimScene, lab_scene, simulate_log
from tagtrack.tracking import measure_windows

GEO = paper_geometry()
SCHED = SASSchedule()
SEARCH = search_range(GEO)


def noiseless_window(theta, n=50, gain=1.0):
    scene = SimScene(GEO, [("t", [PathSpec(gain, 0.0, is_los=True)])])
    return simulate_at(scene, SASSchedule(samples_per_window=2 * n), [theta], 0)[0]


def eig2(r):
    "(lam_s, lam_n, u_s, u_n) of one Hermitian 2x2 matrix, through the stacked form."
    lam_s, lam_n, u_s, u_n = _eig2_stack(np.asarray(r)[None])
    return float(lam_s[0]), float(lam_n[0]), u_s[0], u_n[0]


class TestSnapshotCovariance:
    def test_all_ones(self):
        cov = iq_window([[1, 1], [1, 1]]).covariance
        assert cov.shape == (2, 2)
        np.testing.assert_allclose(cov, [[1, 1], [1, 1]], atol=1e-15)

    def test_identity_pair(self):
        cov = iq_window([[1, 0], [0, 1]]).covariance
        np.testing.assert_allclose(cov, 0.5 * np.eye(2), atol=1e-15)

    def test_offdiagonal_phase_at_15deg(self):
        cov = noiseless_window(math.radians(15.0)).covariance
        assert np.angle(cov[0, 1]) == pytest.approx(-2.6018, abs=1e-3)

    def test_hermitian_psd_and_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20))
            r = _snapshot_covariance(y)
            assert abs(r[0, 1] - np.conj(r[1, 0])) < 1e-12 * np.abs(r).max()
            assert eig2(r)[1] >= -1e-10 * np.trace(r).real
            # trace equals squared Frobenius norm over snapshot count
            assert np.trace(r).real == pytest.approx(
                np.linalg.norm(y) ** 2 / y.shape[1], rel=1e-9)

    def test_incomplete_window_rejected(self):
        "A NaN-filled lost row reaches R[1, 0], so the window yields no angle."
        w = iq_window([[1, 1], [np.nan, np.nan]], window_idx=7)
        assert not cmath.isfinite(w.covariance[1, 0])
        with pytest.raises(ValueError, match="tag 't' window 7"):
            estimate_aoa(w, GEO, SEARCH)


def ref_eig2(r):
    "The numpy-array form of one matrix's eigendecomposition, kept to pin the stack's bits."
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
    cov = _snapshot_covariance(y)
    got_s, got_n, got_us, got_un = eig2(cov)
    lam_s, lam_n, u_s, u_n = ref_eig2(cov)
    assert (got_s, got_n) == (lam_s, lam_n)
    assert got_us.tobytes() == u_s.tobytes() and got_un.tobytes() == u_n.tobytes()
    assert music_spectrum(theta, got_un, GEO) == music_spectrum(theta, u_n, GEO)


def ref_music_spectrum(theta, noise_vec, geometry):
    "The complex-arithmetic music_spectrum, kept to pin the bits of the peak."
    phase = steering_phase(np.asarray(theta, dtype=float), geometry)
    proj = noise_vec[0] + np.exp(-1j * phase) * noise_vec[1]
    out = 1.0 / np.maximum(np.abs(proj) ** 2, SPECTRUM_FLOOR)
    return float(out) if np.isscalar(theta) else out


def spectrum_peak(m, geometry) -> float:
    "One measurement's peak, evaluated on its own as the reference for spectrum_peaks."
    return ref_music_spectrum(m.theta_hat, eig2(m.covariance)[3], geometry)


def ref_estimate_aoa(window, geometry, search=None, tx=None):
    """The eager estimate_aoa, kept to pin the bits of the angle and the peak.

    It checks the search range itself (None: +-18 deg clamped into the field
    of view), divides the 2 x n transmit sequence ``tx`` out of the window's
    matrix when one is given, and takes its own covariance of the result.
    Returns (theta_hat, spectrum_peak, window_idx).
    """
    fov = unambiguous_fov(geometry)
    if search is None:
        half = min(math.radians(18.0), fov)
        search = (-half, half)
    lo, hi = search
    if not lo < hi:
        raise ValueError("search range must satisfy theta_min < theta_max")
    if abs(lo) > fov + 1e-12 or abs(hi) > fov + 1e-12:
        raise ValueError("search range must lie within the unambiguous field of view")
    y = window.matrix
    with np.errstate(invalid="ignore", over="ignore"):
        if tx is not None:
            y = y / tx
        cov = y @ y.conj().T / y.shape[1]
    if not np.isfinite(cov).all():
        raise ValueError(f"tag {window.tag_id!r} window {window.window_idx}: snapshot "
                         "covariance is not finite (a NaN, infinite or overflowing IQ value)")
    u_n = eig2(cov)[3]
    sin_theta = cmath.phase(cov[1, 0]) / \
        (4.0 * math.pi * geometry.element_spacing_m / geometry.wavelength_m)
    theta = math.asin(sin_theta) if abs(sin_theta) <= 1.0 else math.nan
    if not lo <= theta <= hi:
        # one endpoint at a time: on an array the complex product may fuse
        # multiply-adds, and a near tie would then pick the other endpoint
        ends = [ref_music_spectrum(t, u_n, geometry) for t in (lo, hi)]
        theta = (lo, hi)[int(np.argmax(ends))]
    return float(theta), ref_music_spectrum(theta, u_n, geometry), window.window_idx


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
    "A window (sometimes with a NaN-filled lost row), geometry and search range."
    y = draw(snapshot_matrices())
    geometry = draw(st.sampled_from(GEOMETRIES))
    if not (draw(st.booleans()) or draw(st.booleans())):
        y[draw(st.integers(0, 1))] = np.nan
    window = iq_window(y, window_idx=draw(st.integers(0, 10 ** 6)))
    return window, geometry, draw(search_ranges(geometry))


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=400, deadline=None)
@given(case=aoa_cases())
# endpoints one ulp apart, whose pseudospectra the vectorized complex product rounds apart
@example(case=(iq_window([[2.94 + 0.28j, 5.47 - 7.36j], [-1.63 - 4.82j, 5.99 + 0.4j]]),
               GEO, (-0.058, -0.057999999999999996)))
def test_estimate_aoa_matches_eager_reference_bitwise(case):
    window, geometry, search = case
    try:
        theta, peak, idx = ref_estimate_aoa(window, geometry, search)
    except ValueError as e:  # the reference's refusals hold too
        with pytest.raises(ValueError, match=re.escape(str(e))):
            estimate_aoa(window, geometry, search_range(geometry, search))
        return
    m = estimate_aoa(window, geometry, search_range(geometry, search))
    assert m.window_idx == idx
    assert bits(m.theta_hat) == bits(theta)
    assert bits(spectrum_peaks([m], geometry)[0]) == bits(peak)


@settings(max_examples=300, deadline=None)
@given(y=snapshot_matrices(), row=st.integers(0, 1), col=st.integers(0, 59),
       part=st.sampled_from(["real", "imag"]),
       bad=st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200]),
       idx=st.integers(0, 10 ** 6))
def test_nonfinite_iq_rejected(y, row, col, part, bad, idx):
    "One NaN, infinite or overflowing IQ value anywhere in Y raises, naming tag and window."
    z = y[row, col % y.shape[1]]
    y[row, col % y.shape[1]] = complex(bad, z.imag) if part == "real" else complex(z.real, bad)
    # no numpy warning first: filterwarnings = error would turn it into the failure
    with pytest.raises(ValueError, match=f"tag 't' window {idx}: .*not finite"):
        estimate_aoa(iq_window(y, window_idx=idx), GEO, SEARCH)


@st.composite
def residual_phase_cases(draw):
    """A log to measure with residual phase on: (log, geometry, schedule, search).

    One to three tags appear in a drawn order, so a tag's slot (its place
    among the sorted tag ids) need not follow the log.  Each tag has a few
    windows at rising indices, often from 0.  A window's rows take the
    schedule's width or another, independent or rank one; now and then a row
    is NaN-filled or one IQ value is NaN, infinite or overflowing.
    """
    geometry = draw(st.sampled_from(GEOMETRIES))
    cols = draw(st.integers(2, 8))
    period = draw(st.sampled_from([2.5e-4, 2.5037e-4]) | st.floats(1e-5, 1e-3))
    schedule = SASSchedule(samples_per_window=2 * cols, sample_period_s=period,
                           residual_phase=True)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    width = st.just(cols) | st.integers(0, cols + 3)
    recs = []
    tags = draw(st.permutations(["A", "B", "C"]))[:draw(st.integers(1, 3))]
    for t, tag in enumerate(tags):
        idx = draw(st.just(0) | st.integers(0, 10 ** 6))
        for _ in range(draw(st.integers(1, 5))):
            n1 = draw(width)
            n2 = n1 if draw(st.booleans()) else draw(width)
            y = [rng.normal(size=n) + 1j * rng.normal(size=n) for n in (n1, n2)]
            if draw(st.booleans()):
                k = min(n1, n2)
                y[1][:k] = y[0][:k] * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
            scale = 10.0 ** draw(st.floats(-8, 8))
            y = [scale * row for row in y]
            row, bad = draw(st.integers(0, 1)), draw(st.sampled_from([None, None, "row", "value"]))
            if bad == "row":
                y[row][:] = np.nan
            elif bad == "value" and y[row].size:
                col, value = draw(st.integers(0, y[row].size - 1)), draw(st.sampled_from(
                    [math.nan, math.inf, -math.inf, 1e200, -1e200]))
                z = y[row][col]
                y[row][col] = complex(value, z.imag) if draw(st.booleans()) else \
                    complex(z.real, value)
            recs += [ReadRecord(idx, idx + 0.1 * a + 0.01 * t, tag, a, y[a - 1], 0.0, 0.0, True)
                     for a in (1, 2)]
            idx += draw(st.integers(1, 3))
    recs.sort(key=lambda r: r.timestamp_s)
    return from_records(recs), geometry, schedule, draw(search_ranges(geometry))


@settings(max_examples=200, deadline=None)
@given(case=residual_phase_cases())
# an infinite value over the transmit sample of global slot 0, exactly 1 + 0j: the
# complex quotient's NaN part once came with numpy's invalid-value warning
@example(case=(from_records([ReadRecord(0, 0.1 * a, "A", a, np.array([complex(math.inf, 1.0), 1.0])
                                        if a == 1 else np.ones(2, complex), 0.0, 0.0, True)
                             for a in (1, 2)]),
               GEO, SASSchedule(samples_per_window=4, sample_period_s=2.5037e-4,
                                residual_phase=True), None))
def test_residual_phase_measurements_match_reference_bitwise(case):
    """Windows of the schedule's width are measured with their transmit sequence divided out.

    Every measurement and its peak are the reference's, bit for bit, and the
    first window the reference refuses makes ``measure_windows`` raise the
    same message, with no numpy warning first.
    """
    log, geometry, schedule, search = case
    windows = windows_by_tag(log)
    want = {}
    try:
        for slot, tag in enumerate(sorted(windows), start=1):
            want[tag] = [ref_estimate_aoa(w, geometry, search, np.vstack(
                [schedule.tx_sequence(w.window_idx, m, min(slot, 2), geometry.carrier_freq_hz)
                 for m in (1, 2)]) if w.matrix.shape[1] == schedule.cols else None)
                for w in windows[tag]]
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            measure_windows(windows, geometry, schedule, search)
        return
    got = measure_windows(windows, geometry, schedule, search)
    assert list(got) == list(want)
    for tag, ms in got.items():
        peaks = spectrum_peaks(ms, geometry).tolist()
        assert [(m.window_idx, bits(m.theta_hat), bits(p)) for m, p in zip(ms, peaks)] == \
            [(idx, bits(theta), bits(peak)) for theta, peak, idx in want[tag]]


@settings(max_examples=100, deadline=None)
@given(geometry=st.sampled_from(GEOMETRIES),
       windows=st.lists(snapshot_matrices(), max_size=24),
       search=st.none() | st.just((-0.05, 0.05)))
def test_spectrum_peaks_match_per_window_bitwise(geometry, windows, search):
    "The peaks of all windows at once are each window's own, bit for bit."
    ms = [estimate_aoa(iq_window(y), geometry, search_range(geometry, search)) for y in windows]
    got = spectrum_peaks(ms, geometry)
    assert got.shape == (len(ms),)
    assert [bits(p) for p in got.tolist()] == [bits(spectrum_peak(m, geometry)) for m in ms]


def test_in_range_window_skips_subspace_work(monkeypatch):
    "An angle inside the search range comes from arg R[1, 0] alone."
    def called(*args, **kwargs):
        raise AssertionError("subspace work for an in-range window")

    w = noiseless_window(0.1)
    monkeypatch.setattr(music, "_eig2_stack", called)
    monkeypatch.setattr(music, "music_spectrum", called)
    m = estimate_aoa(w, GEO, SEARCH)
    assert abs(m.theta_hat - 0.1) <= 1e-6


class TestEig2:
    def test_diagonal(self):
        lam_s, lam_n, u_s, u_n = eig2(np.diag([2.0, 1.0]).astype(complex))
        assert (lam_s, lam_n) == (2.0, 1.0)
        np.testing.assert_allclose(np.abs(u_s), [1, 0], atol=1e-15)
        np.testing.assert_allclose(np.abs(u_n), [0, 1], atol=1e-15)

    def test_rank_one_ones(self):
        lam_s, lam_n, u_s, _ = eig2(np.ones((2, 2), dtype=complex))
        assert lam_s == pytest.approx(2.0)
        assert lam_n == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(u_s), [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        r = y @ y.conj().T / 8
        s1, n1, u1, _ = eig2(r)
        s2, n2, u2, _ = eig2(3.5 * r)
        assert s2 == pytest.approx(3.5 * s1, rel=1e-12)
        assert n2 == pytest.approx(3.5 * n1, rel=1e-12)
        # eigvecs equal up to phase
        assert abs(abs(np.vdot(u1, u2)) - 1) < 1e-12

    def test_eigen_equation_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
            r = y @ y.conj().T / 6
            lam_s, lam_n, u_s, u_n = eig2(r)
            np.testing.assert_allclose(r @ u_s, lam_s * u_s, atol=1e-9)
            np.testing.assert_allclose(r @ u_n, lam_n * u_n, atol=1e-9)
            assert abs(np.vdot(u_s, u_n)) <= 1e-12
            assert np.linalg.norm(u_s) == pytest.approx(1.0, abs=1e-12)
            recon = lam_s * np.outer(u_s, u_s.conj()) + lam_n * np.outer(u_n, u_n.conj())
            assert np.linalg.norm(recon - r) <= 1e-9 * np.linalg.norm(r)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eig2(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


class TestSpectrum:
    def test_noiseless_peak_hits_clamp(self):
        u_n = eig2(noiseless_window(math.radians(7.0)).covariance)[3]
        peak = music_spectrum(math.radians(7.0), u_n, GEO)
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
            u_n = eig2(_snapshot_covariance(y))[3]
            theta = rng.uniform(-0.2, 0.2)
            alias = math.asin(math.sin(theta) + 0.625)
            s1 = music_spectrum(theta, u_n, GEO)
            s2 = music_spectrum(alias, u_n, GEO)
            assert s2 == pytest.approx(s1, rel=1e-9)


class TestEstimateAoA:
    def test_noiseless_zero(self):
        m = estimate_aoa(noiseless_window(0.0), GEO, SEARCH)
        assert abs(math.degrees(m.theta_hat)) <= 0.01

    def test_noiseless_grid_exactness(self):
        for deg in np.arange(-18, 18.01, 0.5):
            m = estimate_aoa(noiseless_window(math.radians(deg)), GEO, SEARCH)
            assert abs(math.degrees(m.theta_hat) - deg) <= 0.01, deg

    def test_incomplete_window_invalid(self):
        "A window with a NaN-filled lost row raises; it never becomes an endpoint angle."
        y = noiseless_window(0.1).matrix
        y[1] = np.nan
        with pytest.raises(ValueError, match="tag 't' window 0: .*not finite"):
            estimate_aoa(iq_window(y), GEO, SEARCH)

    def test_anechoic_tolerance(self):
        errs = []
        scene = anechoic_scene(GEO, 20.0)
        for s in range(100):
            w = simulate_at(scene, SCHED, [math.radians(15.0)], [30, s])[0]
            errs.append(abs(math.degrees(estimate_aoa(w, GEO, SEARCH).theta_hat) - 15.0))
        assert np.mean(errs) <= 1.5

    def test_lab_tolerance(self):
        errs = []
        for s in range(100):
            rng = np.random.default_rng([31, s])
            scene = lab_scene(GEO, 20.0, rng)
            w = simulate_at(scene, SCHED, [math.radians(15.0)], [32, s])[0]
            errs.append(abs(math.degrees(estimate_aoa(w, GEO, SEARCH).theta_hat) - 15.0))
        assert np.mean(errs) <= 4.5

    def test_gain_invariance(self):
        rng = np.random.default_rng(5)
        scene = anechoic_scene(GEO, 15.0)
        for s in range(10):
            w = simulate_at(scene, SCHED, [0.15], [33, s])[0]
            c = (rng.normal() + 1j * rng.normal()) or 1.0
            scaled = iq_window(c * w.matrix)
            t1 = estimate_aoa(w, GEO, SEARCH).theta_hat
            t2 = estimate_aoa(scaled, GEO, SEARCH).theta_hat
            assert abs(math.degrees(t1 - t2)) <= 1e-4

    def test_brute_force_oracle(self):
        # the closed-form peak agrees with an exhaustive 0.001-degree grid
        # argmax within one grid step
        fine = np.radians(np.arange(-18, 18.0001, 0.001))
        for s in range(15):
            rng = np.random.default_rng([34, s])
            scene = lab_scene(GEO, 10.0, rng)
            w = simulate_at(scene, SCHED, [rng.uniform(-0.25, 0.25)], [35, s])[0]
            sp = music_spectrum(fine, eig2(w.covariance)[3], GEO)
            brute = fine[int(np.argmax(sp))]
            m = estimate_aoa(w, GEO, SEARCH)
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
            u_n = eig2(w.covariance)[3]
            brute = fine[int(np.argmax(music_spectrum(fine, u_n, GEO)))]
            m = estimate_aoa(w, GEO, (lo, hi))
            assert abs(math.degrees(m.theta_hat - brute)) <= 0.001
            if end is not None:
                assert m.theta_hat == (lo, hi)[end]
                assert spectrum_peaks([m], GEO)[0] == music_spectrum(m.theta_hat, u_n, GEO)

    def test_two_tag_independence(self):
        errs = {"-15": [], "-10": []}
        for s in range(100):
            scene = anechoic_scene(GEO, 20.0, tag_ids=("A", "B"))
            ws = simulate_at(scene, SCHED,
                             [math.radians(-15.0), math.radians(-10.0)], [36, s])
            errs["-15"].append(abs(math.degrees(estimate_aoa(ws[0], GEO, SEARCH).theta_hat) + 15))
            errs["-10"].append(abs(math.degrees(estimate_aoa(ws[1], GEO, SEARCH).theta_hat) + 10))
        assert np.mean(errs["-15"]) <= 1.5
        assert np.mean(errs["-10"]) <= 1.5

    def test_residual_phase_compensation(self):
        # with the residual carrier phase on, dividing out the known transmit
        # sequence restores the noiseless estimate, which is lost without it
        sched = SASSchedule(sample_period_s=2.5037e-4, residual_phase=True)
        scene = SimScene(GEO, [("t", [PathSpec(1.0, 0.0, is_los=True)])])
        windows = windows_by_tag(simulate_log(scene, sched, [np.full(4, math.radians(9.0))], 0))
        errs = [abs(math.degrees(m.theta_hat) - 9.0)
                for schedule in (sched, None)
                for m in measure_windows(windows, GEO, schedule)["t"]]
        assert len(errs) == 8 and max(errs[:4]) <= 0.01 and min(errs[4:]) > 1.0

    def test_consistency_with_positions(self):
        # a tag simulated at a pose is recovered at aoa_from_positions(pose)
        pose = ScenePose((0.0, 0.0), (0.8, 3.0))
        theta = aoa_from_positions(pose)
        assert abs(theta) < unambiguous_fov(GEO)
        w = noiseless_window(theta)
        m = estimate_aoa(w, GEO, SEARCH)
        assert abs(math.degrees(m.theta_hat - theta)) <= 0.01

    def test_snr_monotonicity(self):
        # RMSE is non-increasing in per-sample SNR, 200 trials per point
        rmse = []
        for snr in (0.0, 10.0, 20.0, 30.0):
            scene = anechoic_scene(GEO, snr)
            sq = []
            for s in range(200):
                w = simulate_at(scene, SCHED, [math.radians(15.0)], [37, int(snr), s])[0]
                sq.append((math.degrees(estimate_aoa(w, GEO, SEARCH).theta_hat) - 15.0) ** 2)
            rmse.append(math.sqrt(np.mean(sq)))
        assert all(hi >= lo for hi, lo in zip(rmse[:-1], rmse[1:]))


class TestSearchRange:
    def test_default_range(self):
        assert search_range(GEO) == (-math.radians(18.0), math.radians(18.0))
        narrow = ArrayGeometry(GEO.carrier_freq_hz, 0.4)     # FOV +-12.5 deg
        fov = unambiguous_fov(narrow)
        assert search_range(narrow) == (-fov, fov)

    def test_given_range(self):
        assert search_range(GEO, (0.1, 0.2)) == (0.1, 0.2)
        fov = unambiguous_fov(GEO)
        assert search_range(GEO, (-fov - 1e-13, fov)) == (-fov - 1e-13, fov)  # rounding slack

    @pytest.mark.parametrize("search, message", [((0.2, 0.1), "theta_min < theta_max"),
                                                 ((0.1, 0.1), "theta_min < theta_max"),
                                                 ((-1.0, 1.0), "field of view"),
                                                 ((0.0, 1.0), "field of view")])
    def test_bad_range_rejected(self, search, message):
        with pytest.raises(ValueError, match=message):
            search_range(GEO, search)
        # measure_windows checks the range once, before and without any window
        for windows in ({}, {"t": []}, {"t": [noiseless_window(0.0)]}):
            with pytest.raises(ValueError, match=message):
                measure_windows(windows, GEO, search=search)
