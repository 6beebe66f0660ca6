import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagtrack import features
from tagtrack.features import (CHANNEL_ORDER, FEATURE_CONFIGS, STAT_NAMES, WAVELET_LOWPASS,
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


def impute_row(values: np.ndarray) -> np.ndarray:
    "One series' linear imputation; the edges copy the nearest valid value."
    v = np.asarray(values, dtype=float).copy()
    ok = np.isfinite(v)
    if not ok.any():
        raise ValueError("cannot impute an all-missing series")
    if not ok.all():
        idx = np.arange(v.size)
        v[~ok] = np.interp(idx[~ok], idx[ok], v[ok])
    return v


def unwrap_row(phase: np.ndarray) -> np.ndarray:
    "One series' valid entries unwrapped, NaN gaps kept."
    v = np.asarray(phase, dtype=float).copy()
    ok = np.isfinite(v)
    if ok.any():
        v[ok] = np.unwrap(v[ok])
    return v


def prepare_row(kind: str, values: np.ndarray, n_windows: int) -> np.ndarray:
    "One series prepared as ``prepare_channel`` prepares each row of a stack."
    v = np.asarray(values, dtype=float)
    if v.size != n_windows:
        raise ValueError(f"channel {kind!r} has {v.size} values, not n_windows = {n_windows}")
    return impute_row(unwrap_row(v) if kind == "phase" else v)


def reference_sample(sample, config, wavelet_len: int, tags: list[str]):
    """One sample's (values, layout), series by series from the one-series definitions.

    The checks and their order are those of the dataset-wide pass: tags,
    then per series missing channel and length, then statistics, wavelets
    and correlations.  The statistics of all series are checked stage by
    stage, as one stacked call checks them: of the series' errors, the one
    of the earliest stage (length and finiteness, moments, histogram bins)
    is raised.
    """
    own = sorted(sample.tag_ids)
    if own != tags:
        raise ConfigMismatchError(f"tags {own} differ from sample 0's {tags}")
    if not tags:
        raise ConfigMismatchError(f"config {config.name} needs a tag, and the sample has none")
    names, series = [], []
    for tag in tags:
        for kind in CHANNEL_ORDER:
            if kind not in config.channels:
                continue
            raw = getattr(sample, kind).get(tag)
            if raw is None or np.asarray(raw).size == 0 or not np.isfinite(raw).any():
                raise ConfigMismatchError(
                    f"config {config.name} needs channel {kind!r} for tag {tag!r}")
            names.append((tag, kind))
            try:
                series.append(prepare_row(kind, raw, sample.n_windows))
            except ValueError as e:
                raise ValueError(f"tag {tag!r}: {e}") from e
    stats, errors = [], []
    for v in series:
        try:
            stats.append(stats_vector(v))
        except (ValueError, ZeroDivisionError) as e:
            errors.append(e)
    if errors:
        raise min(errors, key=lambda e: 2 if isinstance(e, ZeroDivisionError)
                  else 3 if "bins" in str(e) else 1)
    values, layout = [], []
    for (tag, kind), row, v in zip(names, stats, series):
        values.extend(row)
        layout += [f"{tag}:{kind}:{s}" for s in STAT_NAMES]
        if config.wavelet:
            coeffs = [float(c) for c in dwt_coeffs(v)]
            values.extend(coeffs + [0.0] * (wavelet_len - len(coeffs)))
            layout += [f"{tag}:{kind}:w{j}" for j in range(wavelet_len)]
    values.extend(pearson(a, b) for a, b in itertools.combinations(series, 2))
    layout += [f"corr:{ta}:{ka}|{tb}:{kb}"
               for (ta, ka), (tb, kb) in itertools.combinations(names, 2)]
    return np.array(values, dtype=float), tuple(layout)


def reference_featurize(samples, config):
    "``featurize_dataset`` one sample at a time: the first failing sample raises."
    config = FEATURE_CONFIGS[config] if isinstance(config, str) else config
    wavelet_len = 0
    if config.wavelet:
        for sample in samples:
            n = sample.n_windows
            for _ in range(2):
                n = (n + len(WAVELET_LOWPASS) - 1) // 2
            wavelet_len = max(wavelet_len, n)
    tags = sorted(samples[0].tag_ids)
    rows, layout = [], ()
    for i, sample in enumerate(samples):
        try:
            values, layout = reference_sample(sample, config, wavelet_len, tags)
        except (ValueError, ZeroDivisionError) as e:
            raise SampleFeatureError(i, sample.label, e) from e
        rows.append(values)
    return np.array(rows), layout, [s.label for s in samples]


def one_sample(sample, config):
    "The feature values and layout of a single-sample dataset."
    x, layout, _ = featurize_dataset([sample], config)
    return x[0], layout


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
        values, layout = one_sample(make_sample(), "SP")
        assert values.size == 2 * 14 + 1
        assert len(layout) == values.size

    def test_spra_layout_length(self):
        values, _ = one_sample(make_sample(), "SPRA")
        assert values.size == 2 * 3 * 14 + 15

    def test_deterministic(self):
        s = make_sample(seed=3)
        a = one_sample(s, "SPRA")
        b = one_sample(s, "SPRA")
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_gathers_raw_rows_in_layout_order(self):
        s = make_sample(seed=4)
        rows = assemble_features(s, "SPRA")
        want = [getattr(s, kind)[tag] for tag in ("tag1", "tag2") for kind in CHANNEL_ORDER]
        assert rows.tobytes() == np.array(want).tobytes()

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

    def test_other_tags_named_with_sample_0s(self):
        "A sample with another tag set fails naming both tag lists, not at layout comparison."
        odd = make_sample(seed=2, tags=("tag1", "tag3"))
        samples = [make_sample(seed=1), make_sample(seed=5), odd, make_sample(seed=6)]
        with pytest.raises(SampleFeatureError) as info:
            featurize_dataset(samples, "SPR")
        assert info.value.index == 2
        assert str(info.value) == ("sample 2 (label 'SL'): ConfigMismatchError: tags "
                                   "['tag1', 'tag3'] differ from sample 0's ['tag1', 'tag2']")

    def test_wavelet_block_present(self):
        values, layout = one_sample(make_sample(n=24), "SWA")
        # 24 -> (24+7)//2=15 -> (15+7)//2=11 coefficients per tag
        assert values.size == 2 * (14 + 11) + 1
        assert sum(1 for name in layout if ":w" in name) == 22

    def test_layout_stability_across_dataset(self):
        samples = [make_sample(seed=s) for s in range(12)]
        x, layout, labels = featurize_dataset(samples, FEATURE_CONFIGS["SWA"])
        assert x.shape == (12, len(layout))
        assert hash(layout) == hash(tuple(layout))
        x2, layout2, _ = featurize_dataset(samples, FEATURE_CONFIGS["SWA"])
        assert layout2 == layout
        np.testing.assert_array_equal(x, x2)

    def test_correlation_order_lexicographic(self):
        _, layout = one_sample(make_sample(), "SPR")
        corr_names = [n for n in layout if n.startswith("corr:")]
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
            _stack_statistics(m[None])
        return
    want_corr = np.array([pearson(a, b) for a, b in itertools.combinations(m, 2)])
    stats, corr = _stack_statistics(m[None])
    stats, corr = stats[0], corr[0]
    assert stats.shape == want.shape
    mismatch = [(r, STAT_NAMES[c]) for r, c in zip(*np.nonzero(
        stats.view(np.uint64) != want.view(np.uint64)))]
    assert not mismatch, f"statistics differ in bits at {mismatch}"
    assert corr.tobytes() == want_corr.tobytes()


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
            _stack_statistics(m[None])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            _stack_statistics(np.ones((1, 3, 1)))

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
            got = one_sample(sample, cfg)[0]
            assert got.tobytes() == np.array(want).tobytes()


# --- the stacked prepare against per-row calls -----------------------------------------

def gapped(rng, v: np.ndarray, how: str) -> np.ndarray:
    "v with NaN gaps of one kind; every kind but 'none' keeps at least one valid value."
    v = v.copy()
    n = v.size
    if n < 2:
        return v
    if how == "random":
        v[rng.random(n) < 0.3] = np.nan
        if not np.isfinite(v).any():
            v[rng.integers(n)] = rng.normal()
    elif how == "leading":
        v[:rng.integers(1, n)] = np.nan
    elif how == "trailing":
        v[rng.integers(1, n):] = np.nan
    elif how == "single":
        keep = rng.integers(n)
        v[np.arange(n) != keep] = np.nan
    elif how == "ends":
        v[0] = v[-1] = np.nan
    return v


GAPS = ("none", "random", "leading", "trailing", "single", "ends")


def wrapped_walk(rng, n: int) -> np.ndarray:
    "A phase random walk with steps up to about pi, wrapped into [-pi, pi)."
    walk = np.cumsum(rng.normal(scale=rng.uniform(0.3, 2.5), size=n)) + rng.uniform(-9, 9)
    return (walk + math.pi) % (2 * math.pi) - math.pi


@st.composite
def gapped_stacks(draw):
    "(rows, n) stacks of wrapped walks, constants and ramps with every gap kind."
    rows, n = draw(st.integers(1, 12)), draw(st.integers(1, 45))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = np.empty((rows, n))
    for r in range(rows):
        shape = rng.choice(["walk", "constant", "ramp", "normal"])
        v = {"walk": lambda: wrapped_walk(rng, n),
             "constant": lambda: np.full(n, rng.normal()),
             "ramp": lambda: np.linspace(-4.0, 4.0, n) * rng.normal(),
             "normal": lambda: rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)}[shape]()
        m[r] = gapped(rng, v, GAPS[rng.integers(len(GAPS))])
        if rng.random() < 0.1:
            m[r, rng.integers(n)] = rng.choice([np.inf, -np.inf])
    return m


class TestStackedPrepare:
    @settings(max_examples=200, deadline=None)
    @given(m=gapped_stacks())
    def test_unwrap_rows_equal_per_row_calls(self, m):
        want = np.array([unwrap_row(row) for row in m])
        assert unwrap_valid(m).tobytes() == want.tobytes()
        assert all(unwrap_valid(row).tobytes() == w.tobytes() for row, w in zip(m, want))

    @settings(max_examples=200, deadline=None)
    @given(m=gapped_stacks())
    def test_impute_rows_equal_per_row_calls(self, m):
        try:
            want = np.array([impute_row(row) for row in m])
        except ValueError as e:  # a row without a finite value
            with pytest.raises(ValueError, match=re.escape(str(e))):
                impute_linear(m)
            return
        assert impute_linear(m).tobytes() == want.tobytes()
        assert all(impute_linear(row).tobytes() == w.tobytes() for row, w in zip(m, want))

    @settings(max_examples=200, deadline=None)
    @given(m=gapped_stacks(), kind=st.sampled_from(CHANNEL_ORDER))
    def test_prepare_channel_rows_equal_per_row_calls(self, m, kind):
        try:
            want = np.array([prepare_row(kind, row, m.shape[1]) for row in m])
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                prepare_channel(kind, m, m.shape[1])
            return
        assert prepare_channel(kind, m, m.shape[1]).tobytes() == want.tobytes()

    def test_all_missing_row_rejected(self):
        m = np.array([[0.0, 1.0, np.nan], [np.nan, np.nan, np.nan]])
        with pytest.raises(ValueError, match="cannot impute an all-missing series"):
            impute_linear(m)

    def test_stack_input_unchanged(self):
        m = np.array([[3.0, np.nan, -3.0, np.nan], [np.nan, 1.0, 2.0, 3.0]])
        before = m.copy()
        prepare_channel("phase", m, 4)
        assert m.tobytes() == before.tobytes()

    def test_stack_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="channel 'phase' has 3 values, not n_windows = 4"):
            prepare_channel("phase", np.zeros((2, 3)), 4)


# --- the stacked featurize against the per-sample reference ------------------------------

DEFECTS = ("one_window", "all_nan", "wrong_length", "degenerate_bins", "zero_skew",
           "missing_channel", "other_tags")


def gesture_sample(rng, n: int, tags, label: str, ulp_rate: float = 0.0) -> GestureSample:
    """A sample of drawn series: walks (wrapping for phase), ramps, noise, constants,
    and at ``ulp_rate`` a one-ulp range, each with some gap kind."""
    chans = {}
    for kind in CHANNEL_ORDER:
        chans[kind] = {}
        for tag in tags:
            pick = rng.random()
            if pick < 0.1:
                v = np.full(n, rng.normal())
            elif pick < 0.2:
                v = np.linspace(-1.0, 1.0, n) * rng.normal() + rng.normal()
            elif kind == "phase" or pick < 0.4:
                v = wrapped_walk(rng, n)
            else:
                v = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
            if rng.random() < ulp_rate:  # one-ulp range: degenerate bins
                v = 1.0 + np.spacing(1.0) * rng.integers(0, 2, size=n)
            chans[kind][tag] = gapped(rng, v, GAPS[rng.integers(len(GAPS))])
    return GestureSample(label=label, tag_ids=[str(t) for t in rng.permutation(list(tags))],
                         n_windows=n, dt_s=0.05, **chans)


def spoil(rng, sample: GestureSample, defect: str) -> GestureSample:
    "Give a sample one defect in one drawn series (every config includes phase or AoA)."
    tags = sorted(sample.tag_ids)
    tag = tags[rng.integers(len(tags))]
    kinds = ["phase", "aoa"] if defect in ("all_nan", "missing_channel") else list(CHANNEL_ORDER)
    if defect == "one_window":
        for kind in CHANNEL_ORDER:
            for t in tags:
                getattr(sample, kind)[t] = np.array([rng.normal()])
        sample.n_windows = 1
    elif defect == "all_nan":
        for kind in kinds:
            getattr(sample, kind)[tag] = np.full(sample.n_windows, np.nan)
    elif defect == "missing_channel":
        for kind in kinds:
            del getattr(sample, kind)[tag]
    elif defect == "wrong_length":
        for kind in kinds:
            getattr(sample, kind)[tag] = getattr(sample, kind)[tag][:-1]
    elif defect == "degenerate_bins":
        for kind in kinds:
            getattr(sample, kind)[tag] = 1.0 + np.spacing(1.0) * (np.arange(sample.n_windows) % 2)
    elif defect == "zero_skew":  # std ** 3 underflows to 0 while the range is not 0
        for kind in kinds:
            getattr(sample, kind)[tag] = 1e-110 * rng.random(sample.n_windows)
    elif defect == "other_tags":
        for kind in CHANNEL_ORDER:
            chan = getattr(sample, kind)
            chan["zz"] = chan.pop(tag)
        sample.tag_ids = [t if t != tag else "zz" for t in sample.tag_ids]
    return sample


@st.composite
def gesture_datasets(draw):
    "1-14 samples of 1-3 tags, 1-3 lengths in 8-40, and 0-2 spoiled samples."
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tags = draw(st.sampled_from([("t1",), ("tag1", "tag2"), ("a", "b", "c")]))
    lengths = draw(st.lists(st.integers(8, 40), min_size=1, max_size=3))
    count = draw(st.integers(1, 14))
    ulp_rate = draw(st.sampled_from([0.0, 0.0, 0.01]))
    samples = [gesture_sample(rng, lengths[rng.integers(len(lengths))], tags,
                              label=f"c{rng.integers(3)}", ulp_rate=ulp_rate)
               for _ in range(count)]
    for i in draw(st.sets(st.integers(0, count - 1), max_size=2)):
        samples[i] = spoil(rng, samples[i], draw(st.sampled_from(DEFECTS)))
    return samples


def assert_featurize_matches_reference(samples, config):
    try:
        want = reference_featurize(samples, config)
    except SampleFeatureError as e:
        with pytest.raises(SampleFeatureError) as info:
            featurize_dataset(samples, config)
        assert (str(info.value), info.value.index) == (str(e), e.index)
        assert type(info.value.__cause__) is type(e.__cause__)
        return
    x, layout, labels = featurize_dataset(samples, config)
    assert (layout, labels) == want[1:]
    assert x.shape == want[0].shape
    differ = sorted({layout[c] for c in np.nonzero(
        x.view(np.uint64) != want[0].view(np.uint64))[1]})
    assert not differ, f"features differ in bits at {differ}"


class TestStackedFeaturize:
    @pytest.mark.parametrize("config", sorted(FEATURE_CONFIGS))
    @settings(max_examples=50, deadline=None)
    @given(samples=gesture_datasets(), block=st.sampled_from([1, 2, 3, 64]))
    def test_bitwise_equal_to_per_sample_reference(self, config, samples, block):
        with mock.patch.object(features, "_BLOCK_SAMPLES", block):
            assert_featurize_matches_reference(samples, config)

    @staticmethod
    def dataset(spoiled: dict[int, str], lengths=(12, 30), count: int = 9, seed: int = 0):
        rng = np.random.default_rng(seed)
        samples = [gesture_sample(rng, lengths[i % len(lengths)], ("tag1", "tag2"),
                                  label=f"c{i % 3}") for i in range(count)]
        for i, defect in spoiled.items():
            samples[i] = spoil(rng, samples[i], defect)
        return samples

    @pytest.mark.parametrize("config", sorted(FEATURE_CONFIGS))
    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("where", [(4,), (2, 7), (0,)])
    def test_bad_samples_raise_as_reference(self, config, defect, where):
        samples = self.dataset({i: defect for i in where})
        with pytest.raises(SampleFeatureError) as info:
            reference_featurize(samples, config)
        # other tags on sample 0 make sample 1 the odd one
        assert info.value.index == (1 if where == (0,) and defect == "other_tags" else where[0])
        assert_featurize_matches_reference(samples, config)

    @pytest.mark.parametrize("gather", ["all_nan", "wrong_length", "missing_channel",
                                        "other_tags"])
    @pytest.mark.parametrize("stats", ["one_window", "degenerate_bins", "zero_skew"])
    def test_earliest_failure_wins_across_stages(self, gather, stats):
        "An earlier statistics failure beats a later gather failure, and the other way round."
        for spoiled, first in (({6: gather, 2: stats}, 2), ({1: gather, 4: stats}, 1)):
            samples = self.dataset(spoiled)
            for config in ("SPR", "SWA"):
                with pytest.raises(SampleFeatureError) as info:
                    featurize_dataset(samples, config)
                assert info.value.index == first
                assert_featurize_matches_reference(samples, config)

    def test_earliest_failure_wins_across_length_groups(self):
        "Length groups run shortest first; the failure reported is still the first in order."
        samples = self.dataset({3: "zero_skew", 7: "degenerate_bins"}, lengths=(30, 10, 20))
        assert samples[3].n_windows == 30 and samples[7].n_windows == 10
        with pytest.raises(SampleFeatureError) as info:
            featurize_dataset(samples, "SPRA")
        assert info.value.index == 3
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_short_series_wavelets_fail_as_reference(self):
        "n_windows 8 leaves 7 coefficients after one level: too short for the second."
        samples = self.dataset({}, lengths=(12, 8))
        with pytest.raises(SampleFeatureError, match="series length 7 is shorter") as info:
            featurize_dataset(samples, "SWP")
        assert info.value.index == 1
        assert_featurize_matches_reference(samples, "SWP")
