import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagtrack.features import (FEATURE_CONFIGS, STAT_NAMES, WAVELET_LOWPASS,
                               ConfigMismatchError, SampleFeatureError, _stack_statistics,
                               assemble_features, dwt_coeffs, dwt_single, featurize_dataset,
                               impute_linear, prepare_channel, unwrap_valid)
from tagtrack.simulate import GestureSample

# --- one-series references: the definitions the stacked pass reproduces bit for bit ---


def stats_vector(values: np.ndarray) -> np.ndarray:
    "The 14 per-series statistics, in STAT_NAMES order."
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise ValueError("need at least 2 samples")
    if not np.isfinite(v).all():
        raise ValueError("series contains non-finite values; impute first")
    vmin, vmax = float(v.min()), float(v.max())
    if vmax == vmin:
        mean = vmin
        var = std = m3 = skew = kurt = 0.0
    else:
        mean = float(v.mean())
        var = float(np.mean((v - mean) ** 2))
        std = math.sqrt(var)
        m3 = float(np.mean((v - mean) ** 3))
        skew = m3 / std ** 3
        kurt = float(np.mean((v - mean) ** 4)) / var ** 2 - 3.0
    if vmax > vmin:
        counts, edges = np.histogram(v, bins=16, range=(vmin, vmax))
        k = int(np.argmax(counts))
        mode = 0.5 * (edges[k] + edges[k + 1])
        p = counts[counts > 0] / v.size
        entropy = float(-(p * np.log(p)).sum())
    else:
        mode = vmin
        entropy = 0.0
    q1, med, q3 = (float(x) for x in np.percentile(v, [25, 50, 75]))
    return np.array([mode, med, q1, q3, mean, vmax, vmin, vmax - vmin,
                     var, std, m3, kurt, skew, entropy])


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    "Pearson correlation; 0 by convention when either series is constant."
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size or a.size < 2:
        raise ValueError("series must have equal length >= 2")
    da, db = a - a.mean(), b - b.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0:
        return 0.0
    return float(np.clip((da @ db) / denom, -1.0, 1.0))


def daubechies_lowpass(order: int) -> np.ndarray:
    """Orthonormal Daubechies scaling filter of the given order (2*order taps).

    Obtained by spectral factorization of the half-band polynomial, keeping
    the roots inside the unit circle (the classical extremal-phase family);
    normalized so the coefficients sum to sqrt(2).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)
    binom = [math.comb(order - 1 + k, k) for k in range(order)]
    y_roots = np.roots(binom[::-1])
    z_roots = []
    for y in y_roots:
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        for z in ((b + disc) / 2.0, (b - disc) / 2.0):
            if abs(z) < 1.0:
                z_roots.append(z)
    poly = np.array([1.0 + 0.0j])
    for _ in range(order):
        poly = np.convolve(poly, [1.0, 1.0])
    for zk in z_roots:
        poly = np.convolve(poly, [1.0, -zk])
    h = np.real(poly)
    return h * (math.sqrt(2.0) / h.sum())


def stat(vec, name):
    return vec[STAT_NAMES.index(name)]


def make_sample(label="SL", n=24, seed=0, tags=("tag1", "tag2")):
    rng = np.random.default_rng(seed)
    return GestureSample(
        label=label, tag_ids=list(tags),
        truth={},
        rss={t: rng.normal(size=n) for t in tags},
        phase={t: rng.normal(size=n) for t in tags},
        aoa={t: rng.normal(size=n) for t in tags},
        n_windows=n, dt_s=0.05)


class TestStatsVector:
    def test_symmetric_triple(self):
        v = stats_vector(np.array([1.0, 2.0, 3.0]))
        assert stat(v, "mean") == 2.0
        assert stat(v, "median") == 2.0
        assert stat(v, "range") == 2.0
        assert stat(v, "var") == pytest.approx(2.0 / 3.0)
        assert stat(v, "skewness") == pytest.approx(0.0, abs=1e-12)

    def test_constant_series(self):
        v = stats_vector(np.full(10, 4.2))
        assert stat(v, "max") == stat(v, "min") == 4.2
        assert stat(v, "mode") == 4.2
        assert stat(v, "var") == 0.0
        assert stat(v, "entropy") == 0.0
        assert stat(v, "skewness") == 0.0
        assert stat(v, "kurtosis") == 0.0

    def test_normal_sample_excess_kurtosis(self):
        rng = np.random.default_rng(0)
        v = stats_vector(rng.normal(size=100_000))
        assert abs(stat(v, "kurtosis")) <= 0.1
        assert abs(stat(v, "skewness")) <= 0.05

    def test_order_statistics_coherent(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = stats_vector(rng.normal(size=rng.integers(2, 60)))
            assert stat(v, "min") <= stat(v, "q1") <= stat(v, "median") \
                <= stat(v, "q3") <= stat(v, "max")
            assert stat(v, "range") == pytest.approx(stat(v, "max") - stat(v, "min"))
            assert stat(v, "std") == pytest.approx(math.sqrt(stat(v, "var")))

    def test_affine_invariance_and_equivariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=40)
            a, b = rng.uniform(0.5, 3.0), rng.normal()
            vx = stats_vector(x)
            vy = stats_vector(a * x + b)
            assert stat(vy, "skewness") == pytest.approx(stat(vx, "skewness"), abs=1e-9)
            assert stat(vy, "kurtosis") == pytest.approx(stat(vx, "kurtosis"), abs=1e-9)
            for name in ("mean", "median", "q1", "q3", "mode"):
                assert stat(vy, name) == pytest.approx(a * stat(vx, name) + b, abs=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            stats_vector(np.array([1.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            stats_vector(np.array([1.0, np.nan, 2.0]))


class TestPearson:
    def test_self_correlation(self):
        x = np.random.default_rng(0).normal(size=30)
        assert pearson(x, x) == pytest.approx(1.0)

    def test_anti_correlation(self):
        x = np.random.default_rng(1).normal(size=30)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_shuffled_independence(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20_000)
        y = x.copy()
        rng.shuffle(y)
        assert abs(pearson(x, y)) < 0.05

    def test_zero_variance_convention(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=25), rng.normal(size=25)
        assert pearson(2.0 * x + 1.0, y) == pytest.approx(pearson(x, y), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))


def qmf(h: np.ndarray) -> np.ndarray:
    "Wavelet (highpass) filter paired with scaling filter h."
    return ((-1.0) ** np.arange(h.size)) * h[::-1]


def analysis_level(x: np.ndarray, h: np.ndarray):
    """One analysis level's (approximation, detail) coefficients: half-sample
    symmetric extension, then the lowpass and its QMF at every other offset."""
    n, L = x.size, h.size
    ext = np.concatenate([x[:L - 1][::-1], x, x[:-L - 1:-1]])
    frames = np.array([ext[2 * k + 1:2 * k + 1 + L] for k in range((n + L - 1) // 2)])
    return frames @ h, frames @ qmf(h)


class TestDaubechies:
    def test_db1_is_haar(self):
        np.testing.assert_allclose(daubechies_lowpass(1), [1, 1] / np.sqrt(2))

    def test_db2_closed_form(self):
        ref = np.array([1 + math.sqrt(3), 3 + math.sqrt(3),
                        3 - math.sqrt(3), 1 - math.sqrt(3)]) / (4 * math.sqrt(2))
        np.testing.assert_allclose(daubechies_lowpass(2), ref, atol=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_orthonormality_and_moments(self, order):
        h = daubechies_lowpass(order)
        assert h.size == 2 * order
        assert h.sum() == pytest.approx(math.sqrt(2), abs=1e-10)
        for k in range(order):
            s = sum(h[n] * h[n - 2 * k] for n in range(2 * k, h.size))
            assert s == pytest.approx(1.0 if k == 0 else 0.0, abs=1e-10)
        g = qmf(h)
        for p in range(order):
            assert sum(g[n] * n ** p for n in range(h.size)) == pytest.approx(0, abs=1e-8)

    def test_literal_taps_are_the_factorization(self):
        assert np.array(WAVELET_LOWPASS).tobytes() == \
            daubechies_lowpass(4).tobytes()

    def test_constant_series_dc_gain(self):
        c = 2.5
        h = np.array(WAVELET_LOWPASS)
        ca = dwt_single(np.full(32, c), h)
        np.testing.assert_allclose(ca, c * math.sqrt(2), atol=1e-9)
        np.testing.assert_allclose(analysis_level(np.full(32, c), h)[1], 0.0, atol=1e-9)

    @pytest.mark.parametrize("n", [8, 9, 24, 31, 64])
    def test_approximation_matches_filterbank_reference(self, n):
        x = np.random.default_rng(n).normal(size=n)
        h = np.array(WAVELET_LOWPASS)
        assert dwt_single(x, h).tobytes() == analysis_level(x, h)[0].tobytes()

    def test_length_64_level2_symmetric(self):
        # floor((n + f - 1)/2) per level with f = 8: 64 -> 35 -> 21
        coeffs = dwt_coeffs(np.random.default_rng(5).normal(size=64))
        assert coeffs.size == 21

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            dwt_coeffs(np.ones(6))


class TestSeriesPreparation:
    def test_impute_interior_gap(self):
        v = impute_linear(np.array([0.0, np.nan, 2.0]))
        np.testing.assert_allclose(v, [0.0, 1.0, 2.0])

    def test_impute_edges_nearest(self):
        v = impute_linear(np.array([np.nan, 1.0, np.nan]))
        np.testing.assert_allclose(v, [1.0, 1.0, 1.0])

    def test_impute_all_missing_rejected(self):
        with pytest.raises(ValueError):
            impute_linear(np.array([np.nan, np.nan]))

    def test_unwrap_with_gaps(self):
        phase = np.array([3.0, np.nan, -3.0])  # wraps through +-pi
        v = unwrap_valid(phase)
        assert np.isnan(v[1])
        assert v[2] == pytest.approx(2 * math.pi - 3.0)

    def test_wrong_length_rejected(self):
        "A series that is not n_windows long raises naming its channel, never resampled."
        with pytest.raises(ValueError, match="channel 'rss' has 3 values, not n_windows = 5"):
            prepare_channel("rss", np.array([0.0, 1.0, 2.0]), 5)

    def test_prepare_phase_chain(self):
        phase = np.array([3.1, np.nan, -3.1, -3.0])
        out = prepare_channel("phase", phase, 4)
        assert np.isfinite(out).all()
        assert np.abs(np.diff(out)).max() < 1.0  # unwrapped, no 2*pi jumps


class TestAssembleFeatures:
    def test_sp_layout_length(self):
        fv = assemble_features(make_sample(), "SP")
        assert fv.values.size == 2 * 14 + 1
        assert len(fv.layout) == fv.values.size

    def test_spra_layout_length(self):
        fv = assemble_features(make_sample(), "SPRA")
        assert fv.values.size == 2 * 3 * 14 + 15

    def test_deterministic(self):
        s = make_sample(seed=3)
        a = assemble_features(s, "SPRA")
        b = assemble_features(s, "SPRA")
        np.testing.assert_array_equal(a.values, b.values)
        assert a.layout == b.layout

    def test_wrong_length_series_named(self):
        s = make_sample()
        s.aoa["tag2"] = s.aoa["tag2"][:-1]
        with pytest.raises(ValueError, match="tag 'tag2': channel 'aoa' has 23 values"):
            assemble_features(s, "SA")
        samples = [make_sample(seed=1), s]
        with pytest.raises(SampleFeatureError, match="sample 1 .*tag 'tag2': channel 'aoa'"):
            featurize_dataset(samples, FEATURE_CONFIGS["SPRA"])

    def test_missing_channel_named(self):
        s = make_sample()
        s.aoa = {}
        with pytest.raises(ConfigMismatchError, match="aoa"):
            assemble_features(s, "SA")

    def test_wavelet_block_present(self):
        fv = assemble_features(make_sample(n=24), "SWA")
        # 24 -> (24+7)//2=15 -> (15+7)//2=11 coefficients per tag
        assert fv.values.size == 2 * (14 + 11) + 1
        assert sum(1 for name in fv.layout if ":w" in name) == 22

    def test_layout_stability_across_dataset(self):
        samples = [make_sample(seed=s) for s in range(12)]
        x, layout, labels = featurize_dataset(samples, FEATURE_CONFIGS["SWA"])
        assert x.shape == (12, len(layout))
        assert hash(layout) == hash(tuple(layout))
        x2, layout2, _ = featurize_dataset(samples, FEATURE_CONFIGS["SWA"])
        assert layout2 == layout
        np.testing.assert_array_equal(x, x2)

    def test_correlation_order_lexicographic(self):
        fv = assemble_features(make_sample(), "SPR")
        corr_names = [n for n in fv.layout if n.startswith("corr:")]
        assert corr_names == [
            "corr:tag1:rss|tag1:phase",
            "corr:tag1:rss|tag2:rss",
            "corr:tag1:rss|tag2:phase",
            "corr:tag1:phase|tag2:rss",
            "corr:tag1:phase|tag2:phase",
            "corr:tag2:rss|tag2:phase",
        ]


# --- the stacked pass against the one-series references, bit for bit -----------------

@st.composite
def stat_matrices(draw):
    "(series, n) matrices: 1-6 rows, lengths 2-130, scales 1e-3 to 1e3, ties, edges, constants."
    rows, n = draw(st.integers(1, 6)), draw(st.integers(2, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["normal", "rounded", "bin_edges", "few_values", "ulps"]))
    m = rng.normal(size=(rows, n)) * scale + rng.normal(size=(rows, 1)) * scale
    if kind == "rounded":  # ties, and exact zeros of both signs
        m = np.round(m / scale, draw(st.integers(0, 2))) * scale
    elif kind == "bin_edges":  # every value on one of the 17 edges np.histogram builds
        lo, hi = np.sort(m[:, :2], axis=1).T
        edges = np.linspace(lo, hi, 17, axis=1)
        pick = rng.integers(0, 17, size=(rows, n))
        pick[:, 0], pick[:, -1] = 0, 16
        m = np.take_along_axis(edges, pick, axis=1)
    elif kind == "few_values":
        m = rng.choice(rng.normal(size=3) * scale, size=(rows, n))
    elif kind == "ulps":  # a spread of a few ulps: bins about one ulp wide, or narrower
        base = m[:, :1]
        m = base + np.spacing(base) * rng.integers(0, draw(st.integers(1, 64)), size=(rows, n))
    constant = draw(st.sampled_from(["none", "one", "all"]))
    if constant == "all":
        m[:] = m[:, :1]
    elif constant == "one":
        r = draw(st.integers(0, rows - 1))
        m[r] = m[r, 0]
    return np.ascontiguousarray(m)


def assert_stack_matches_reference(m):
    try:
        want = np.array([stats_vector(row) for row in m])
    except (ValueError, ZeroDivisionError) as e:  # the reference's refusals hold too
        with pytest.raises(type(e), match=re.escape(str(e))):
            _stack_statistics(m)
        return
    want_corr = np.array([pearson(a, b) for a, b in itertools.combinations(m, 2)])
    stats, corr = _stack_statistics(m)
    assert stats.shape == want.shape
    mismatch = [(r, STAT_NAMES[c]) for r, c in zip(*np.nonzero(
        stats.view(np.uint64) != want.view(np.uint64)))]
    assert not mismatch, f"statistics differ in bits at {mismatch}"
    assert np.array(corr, dtype=float).tobytes() == want_corr.tobytes()


class TestStackStatistics:
    @settings(max_examples=300, deadline=None)
    @given(m=stat_matrices())
    def test_bitwise_equal_to_one_series_reference(self, m):
        assert_stack_matches_reference(m)

    @pytest.mark.parametrize("rows", [[1.0, 1.0 + 2 ** -52], [0.0, 5e-324], [1.0, 1.0]],
                             ids=["one_ulp", "subnormal", "constant"])
    def test_degenerate_ranges_as_reference(self, rows):
        assert_stack_matches_reference(np.array([rows, [0.0, 1.0]]))

    @settings(max_examples=60, deadline=None)
    @given(m=stat_matrices(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           at=st.tuples(st.integers(0, 5), st.integers(0, 129)))
    def test_nonfinite_rejected(self, m, bad, at):
        m[at[0] % m.shape[0], at[1] % m.shape[1]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _stack_statistics(m)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            _stack_statistics(np.ones((3, 1)))

    @pytest.mark.parametrize("config", sorted(FEATURE_CONFIGS))
    def test_assembled_sample_matches_reference(self, config):
        cfg = FEATURE_CONFIGS[config]
        for seed in range(8):
            sample = make_sample(seed=seed, n=24 + seed)
            sample.phase["tag1"][[0, 5]] = np.nan  # imputed gaps, phase unwrapped
            series = [prepare_channel(kind, getattr(sample, kind)[tag], sample.n_windows)
                      for tag in sample.tag_ids for kind in ("rss", "phase", "aoa")
                      if kind in cfg.channels]
            want = []
            for v in series:
                want.extend(stats_vector(v))
                if cfg.wavelet:
                    want.extend(dwt_coeffs(v))
            want.extend(pearson(a, b) for a, b in itertools.combinations(series, 2))
            got = assemble_features(sample, cfg).values
            assert got.tobytes() == np.array(want).tobytes()
