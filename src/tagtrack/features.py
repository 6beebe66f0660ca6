"""Feature extraction from per-tag RSS / phase / AoA series.

Each included channel contributes 14 statistics (and optionally Daubechies
approximation coefficients); every pair of included series contributes one
Pearson correlation.  The statistics and correlations are computed per
sample, in one pass over its prepared series stacked as a (series,
n_windows) matrix; each value has the bits of the one-series definition
(numpy's histogram and percentile, one dot product per pair), which the
tests keep as the reference.  Conventions for the ambiguous statistics:

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

WAVELET_LEVELS = 2    # analysis levels whose approximation coefficients are features
# Order-4 extremal-phase Daubechies scaling filter (8 taps, summing to sqrt(2));
# each literal is the repr of the spectral-factorization result.
WAVELET_LOWPASS = (0.23037781330889645, 0.7148465705529156, 0.630880767929859,
                   -0.02798376941685959, -0.18703481171909309, 0.03084138183556063,
                   0.03288301166688517, -0.010597401785069018)


class ConfigMismatchError(ValueError):
    "A sample lacks a channel the feature configuration requires."


class SampleFeatureError(ValueError):
    "One sample of a dataset cannot be featurized; ``index`` is its position in the list."

    def __init__(self, index: int, label: str, cause: Exception):
        super().__init__(f"sample {index} (label {label!r}): {type(cause).__name__}: {cause}")
        self.index = index


# --- statistics -------------------------------------------------------------

def _stack_statistics(m: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Statistics and correlations of the rows of m, shape (series, n).

    Returns the (series, 14) statistics in STAT_NAMES order and the Pearson
    correlation of every row pair in ``itertools.combinations`` order.  Each
    value has the bits of the one-series definition: axis-1 sums for the
    moments, numpy's linear quantile (type 7) after its own partition, the
    bins of ``np.histogram(v, 16, range=(min, max))`` for mode and entropy,
    one ``ddot`` per pair, and skewness and kurtosis finished on Python
    floats.
    """
    rows, n = m.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not np.isfinite(m).all():
        raise ValueError("series contains non-finite values; impute first")
    vmin, vmax = m.min(axis=1), m.max(axis=1)
    rng = vmax - vmin
    varies = rng > 0
    mean = m.sum(axis=1) / n
    d = m - mean[:, None]
    var = (d ** 2).sum(axis=1) / n
    std = np.sqrt(var)
    m3, m4 = (d ** np.array([3.0, 4.0])[:, None, None]).sum(axis=2) / n
    skew = [a / s ** 3 if v else 0.0
            for a, s, v in zip(m3.tolist(), std.tolist(), varies.tolist())]
    kurt = [b / w ** 2 - 3.0 if v else 0.0
            for b, w, v in zip(m4.tolist(), var.tolist(), varies.tolist())]

    # np.percentile's partition (the same kth list), so that tied zeros of
    # either sign land where its own interpolation reads them
    pos = [(n - 1) * frac for frac in (0.25, 0.5, 0.75)]
    los = [int(x) for x in pos]
    part = np.partition(m, sorted({0, -1, *los, *(lo + 1 for lo in los)}), axis=1)
    quartiles = []
    for x, lo in zip(pos, los):
        g = x - lo
        a, b = part[:, lo], part[:, lo + 1]
        diff = b - a
        quartiles.append(b - diff * (1 - g) if g >= 0.5 else a + diff * g)

    # np.histogram(v, 16, range=(min, max)): its edges, and its bins, which its
    # corrected index formula makes exactly [e_k, e_k+1), the last one closed
    edges = np.arange(17.0) * (rng / 16)[:, None] + vmin[:, None]
    edges[:, 16] = vmax
    if ((edges[:, 1:] <= edges[:, :-1]) & varies[:, None]).any():
        raise ValueError("Too many bins for data range. Cannot create 16 finite-sized bins.")
    below = np.empty((rows, 17), dtype=np.intp)  # values below each edge
    below[:, 0], below[:, 16] = 0, n
    below[:, 1:16] = (m[:, None, :] < edges[:, 1:16, None]).sum(axis=2)
    counts = below[:, 1:] - below[:, :-1]
    k = counts.argmax(axis=1)
    r = np.arange(rows)
    mode = 0.5 * (edges[r, k] + edges[r, k + 1])
    full = counts > 0
    p = counts[full] / n
    terms = -(p * np.log(p))
    ends = full.sum(axis=1).cumsum().tolist()
    entropy = [float(terms[a:b].sum()) for a, b in zip([0, *ends], ends)]

    stats = np.array([mode, quartiles[1], quartiles[0], quartiles[2], mean, vmax, vmin,
                      rng, var, std, m3, kurt, skew, entropy]).T
    if not varies.all():
        flat = ~varies
        stats[flat, 0] = stats[flat, 4] = vmin[flat]
        stats[flat, 8:] = 0.0

    d_rows = list(d)
    sq = [float(a.dot(a)) for a in d_rows]
    corr = []
    for i, j in itertools.combinations(range(rows), 2):
        denom = math.sqrt(sq[i] * sq[j])
        corr.append(min(max(float(d_rows[i].dot(d_rows[j])) / denom, -1.0), 1.0)
                    if denom else 0.0)
    return stats, corr


# --- Daubechies wavelet filterbank ------------------------------------------

def dwt_single(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One analysis level's approximation coefficients.

    Half-sample symmetric extension, output length floor((n + len(h) - 1) / 2).
    """
    x = np.asarray(x, dtype=float)
    n, L = x.size, h.size
    if n < L:
        raise ValueError(f"series length {n} is shorter than the filter ({L})")
    ext = np.r_[x[:L - 1][::-1], x, x[:-L - 1:-1]]
    pos = 2 * np.arange((n + L - 1) // 2)[:, None] + 1 + np.arange(L)[None, :]
    return ext[pos] @ h


def dwt_coeffs(values: np.ndarray) -> np.ndarray:
    "Approximation coefficients after WAVELET_LEVELS analysis stages."
    h = np.array(WAVELET_LOWPASS)
    ca = np.asarray(values, dtype=float)
    for _ in range(WAVELET_LEVELS):
        ca = dwt_single(ca, h)
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


def prepare_channel(kind: str, values: np.ndarray, n_windows: int) -> np.ndarray:
    "Impute a channel of ``n_windows`` values, unwrapping phase first."
    v = np.asarray(values, dtype=float)
    if v.size != n_windows:
        raise ValueError(f"channel {kind!r} has {v.size} values, not n_windows = {n_windows}")
    return impute_linear(unwrap_valid(v) if kind == "phase" else v)


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
    names: list[tuple[str, str]] = []
    series: list[np.ndarray] = []
    for tag in sorted(sample.tag_ids):
        for kind in CHANNEL_ORDER:
            if kind not in config.channels:
                continue
            raw = getattr(sample, kind).get(tag)
            if raw is None or np.asarray(raw).size == 0 or not np.isfinite(raw).any():
                raise ConfigMismatchError(
                    f"config {config.name} needs channel {kind!r} for tag {tag!r}")
            names.append((tag, kind))
            try:
                series.append(prepare_channel(kind, raw, sample.n_windows))
            except ValueError as e:
                raise ValueError(f"tag {tag!r}: {e}") from e
    stats, corr = _stack_statistics(np.array(series))
    pieces: list[np.ndarray] = []
    layout: list[str] = []
    for (tag, kind), row, v in zip(names, stats, series):
        pieces.append(row)
        layout += [f"{tag}:{kind}:{s}" for s in STAT_NAMES]
        if config.wavelet:
            coeffs = dwt_coeffs(v)
            want = wavelet_len if wavelet_len is not None else coeffs.size
            if coeffs.size < want:
                coeffs = np.pad(coeffs, (0, want - coeffs.size))
            pieces.append(coeffs[:want])
            layout += [f"{tag}:{kind}:w{j}" for j in range(want)]
    pieces.append(np.array(corr))
    layout += [f"corr:{ta}:{ka}|{tb}:{kb}"
               for (ta, ka), (tb, kb) in itertools.combinations(names, 2)]
    return FeatureVector(np.concatenate(pieces), tuple(layout))


def featurize_dataset(samples, config: FeatureConfig | str):
    """Featurize a sample list under one config; returns (X, layout, labels).

    The wavelet block length is fixed dataset-wide at the longest observed
    coefficient vector (shorter blocks zero-padded) so every row shares one
    layout.  A sample whose features cannot be computed -- a missing
    channel, or one so nearly constant that its histogram bins or its
    variance degenerate -- raises SampleFeatureError naming its index and
    label.
    """
    if isinstance(config, str):
        config = FEATURE_CONFIGS[config]
    wavelet_len = None
    if config.wavelet:
        h_len = len(WAVELET_LOWPASS)
        wavelet_len = 0
        for sample in samples:
            n = sample.n_windows
            for _ in range(WAVELET_LEVELS):
                n = (n + h_len - 1) // 2
            wavelet_len = max(wavelet_len, n)
    rows, labels = [], []
    layout: tuple[str, ...] | None = None
    for i, sample in enumerate(samples):
        try:
            fv = assemble_features(sample, config, wavelet_len=wavelet_len)
        except (ValueError, ZeroDivisionError) as e:
            raise SampleFeatureError(i, sample.label, e) from e
        if layout is None:
            layout = fv.layout
        elif fv.layout != layout:
            raise ConfigMismatchError("inconsistent feature layouts across samples")
        rows.append(fv.values)
        labels.append(sample.label)
    return np.array(rows), layout or (), labels
