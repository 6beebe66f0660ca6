import math

import numpy as np
import pytest

from tagtrack.features import (FEATURE_CONFIGS, STAT_NAMES, ConfigMismatchError,
                               assemble_features, daubechies_lowpass, dwt_coeffs,
                               dwt_single, featurize_dataset,
                               impute_linear, pearson, prepare_channel,
                               resample_linear, stats_vector, unwrap_valid)
from tagtrack.simulate import GestureSample


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
        g = ((-1.0) ** np.arange(h.size)) * h[::-1]
        for p in range(order):
            assert sum(g[n] * n ** p for n in range(h.size)) == pytest.approx(0, abs=1e-8)

    def test_constant_series_dc_gain(self):
        c = 2.5
        ca, cd = dwt_single(np.full(32, c), daubechies_lowpass(4))
        np.testing.assert_allclose(ca, c * math.sqrt(2), atol=1e-9)
        np.testing.assert_allclose(cd, 0.0, atol=1e-9)

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

    def test_resample_endpoints(self):
        v = resample_linear(np.array([0.0, 1.0, 2.0]), 5)
        assert v[0] == 0.0 and v[-1] == 2.0 and v.size == 5

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
