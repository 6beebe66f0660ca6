"""Feature extraction from per-tag RSS / phase / AoA series.

Each included channel contributes 14 statistics (and optionally Daubechies
approximation coefficients); every pair of included series contributes one
Pearson correlation.  Conventions for the ambiguous statistics:

* mode: midpoint of the fullest of 16 equal-width bins over [min, max];
  a constant series is its own mode.
* entropy: Shannon entropy (nats) of the same 16-bin histogram; 0 for a
  constant series.
* variance is population (divide by n); kurtosis is excess (normal -> 0);
  skewness is the standardized third moment; both are 0 for a constant
  series.  The raw third central moment is kept as a separate feature.
* quartiles interpolate linearly between order statistics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

STAT_NAMES = ("mode", "median", "q1", "q3", "mean", "max", "min", "range",
              "var", "std", "m3", "kurtosis", "skewness", "entropy")

CHANNEL_ORDER = ("rss", "phase", "aoa")

WAVELET_ORDER = 4     # Daubechies order of the wavelet configurations (8 taps)
WAVELET_LEVELS = 2    # analysis levels whose approximation coefficients are features


class ConfigMismatchError(ValueError):
    "A sample lacks a channel the feature configuration requires."


# --- statistics -------------------------------------------------------------

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


# --- Daubechies wavelet filterbank ------------------------------------------

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


def _qmf(h: np.ndarray) -> np.ndarray:
    "Wavelet (highpass) filter paired with scaling filter h."
    return ((-1.0) ** np.arange(h.size)) * h[::-1]


def dwt_single(x: np.ndarray, h: np.ndarray):
    """One analysis level; returns (approximation, detail) coefficients.

    Half-sample symmetric extension, output length floor((n + len(h) - 1) / 2).
    """
    x = np.asarray(x, dtype=float)
    n, L = x.size, h.size
    if n < L:
        raise ValueError(f"series length {n} is shorter than the filter ({L})")
    ext = np.r_[x[:L - 1][::-1], x, x[:-L - 1:-1]]
    pos = 2 * np.arange((n + L - 1) // 2)[:, None] + 1 + np.arange(L)[None, :]
    return ext[pos] @ h, ext[pos] @ _qmf(h)


def dwt_coeffs(values: np.ndarray) -> np.ndarray:
    "Approximation coefficients after WAVELET_LEVELS analysis stages."
    h = daubechies_lowpass(WAVELET_ORDER)
    ca = np.asarray(values, dtype=float)
    for _ in range(WAVELET_LEVELS):
        ca, _ = dwt_single(ca, h)
    return ca


# --- series preparation -----------------------------------------------------

def impute_linear(values: np.ndarray) -> np.ndarray:
    "Fill NaNs by linear interpolation (edges copy the nearest valid value)."
    v = np.asarray(values, dtype=float).copy()
    ok = np.isfinite(v)
    if not ok.any():
        raise ValueError("cannot impute an all-missing series")
    if not ok.all():
        idx = np.arange(v.size)
        v[~ok] = np.interp(idx[~ok], idx[ok], v[ok])
    return v


def unwrap_valid(phase: np.ndarray) -> np.ndarray:
    "Unwrap the valid entries of a wrapped phase series, keeping NaN gaps."
    v = np.asarray(phase, dtype=float).copy()
    ok = np.isfinite(v)
    if ok.any():
        v[ok] = np.unwrap(v[ok])
    return v


def resample_linear(values: np.ndarray, n: int) -> np.ndarray:
    "Linear resampling onto an n-point grid over the same support."
    v = np.asarray(values, dtype=float)
    if v.size == n:
        return v
    return np.interp(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, v.size), v)


def prepare_channel(kind: str, values: np.ndarray, target_len: int) -> np.ndarray:
    "Impute (unwrapping phase first) and align a channel to the AoA grid."
    v = unwrap_valid(values) if kind == "phase" else np.asarray(values, dtype=float)
    return resample_linear(impute_linear(v), target_len)


# --- feature configurations -------------------------------------------------

@dataclass(frozen=True)
class FeatureConfig:
    """Named channel/transform selection.

    SP/SWP/SPR/SA/SWA/SPRA select which of RSS, phase and AoA contribute
    statistics and whether wavelet approximation coefficients are appended;
    all configurations add the pairwise Pearson correlations of the
    included series.
    """

    name: str
    channels: tuple[str, ...]
    wavelet: bool


FEATURE_CONFIGS = {
    "SP": FeatureConfig("SP", ("phase",), False),
    "SWP": FeatureConfig("SWP", ("phase",), True),
    "SPR": FeatureConfig("SPR", ("phase", "rss"), False),
    "SA": FeatureConfig("SA", ("aoa",), False),
    "SWA": FeatureConfig("SWA", ("aoa",), True),
    "SPRA": FeatureConfig("SPRA", ("phase", "rss", "aoa"), False),
}


@dataclass
class FeatureVector:
    """Fixed-order real feature values plus the name of each index."""

    values: np.ndarray
    layout: tuple[str, ...]


def assemble_features(sample, config: FeatureConfig | str,
                      wavelet_len: int | None = None) -> FeatureVector:
    """Build one sample's feature vector under a named configuration.

    Layout: per tag (ascending id), per included channel in (rss, phase,
    aoa) order, the 14 statistics then any wavelet coefficients; finally the
    Pearson correlations of all included series pairs in (tag, channel)
    order.  ``wavelet_len`` pads/truncates coefficient blocks to a fixed
    per-dataset length so vectors align.
    """
    if isinstance(config, str):
        config = FEATURE_CONFIGS[config]
    tags = sorted(sample.tag_ids)
    target_len = sample.n_windows
    prepared: list[tuple[str, str, np.ndarray]] = []
    values: list[float] = []
    layout: list[str] = []
    for tag in tags:
        for kind in CHANNEL_ORDER:
            if kind not in config.channels:
                continue
            raw = getattr(sample, kind).get(tag)
            if raw is None or np.asarray(raw).size == 0 or not np.isfinite(raw).any():
                raise ConfigMismatchError(
                    f"config {config.name} needs channel {kind!r} for tag {tag!r}")
            series = prepare_channel(kind, raw, target_len)
            prepared.append((tag, kind, series))
            values.extend(stats_vector(series))
            layout.extend(f"{tag}:{kind}:{s}" for s in STAT_NAMES)
            if config.wavelet:
                coeffs = dwt_coeffs(series)
                want = wavelet_len if wavelet_len is not None else coeffs.size
                if coeffs.size < want:
                    coeffs = np.pad(coeffs, (0, want - coeffs.size))
                values.extend(coeffs[:want])
                layout.extend(f"{tag}:{kind}:w{j}" for j in range(want))
    for (ta, ka, sa), (tb, kb, sb) in itertools.combinations(prepared, 2):
        values.append(pearson(sa, sb))
        layout.append(f"corr:{ta}:{ka}|{tb}:{kb}")
    return FeatureVector(np.array(values), tuple(layout))


def featurize_dataset(samples, config: FeatureConfig | str):
    """Featurize a sample list under one config; returns (X, layout, labels).

    The wavelet block length is fixed dataset-wide at the longest observed
    coefficient vector (shorter blocks zero-padded) so every row shares one
    layout.
    """
    if isinstance(config, str):
        config = FEATURE_CONFIGS[config]
    wavelet_len = None
    if config.wavelet:
        h_len = 2 * WAVELET_ORDER
        wavelet_len = 0
        for sample in samples:
            n = sample.n_windows
            for _ in range(WAVELET_LEVELS):
                n = (n + h_len - 1) // 2
            wavelet_len = max(wavelet_len, n)
    rows, labels = [], []
    layout: tuple[str, ...] | None = None
    for sample in samples:
        fv = assemble_features(sample, config, wavelet_len=wavelet_len)
        if layout is None:
            layout = fv.layout
        elif fv.layout != layout:
            raise ConfigMismatchError("inconsistent feature layouts across samples")
        rows.append(fv.values)
        labels.append(sample.label)
    return np.array(rows), layout or (), labels
