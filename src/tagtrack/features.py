"""Feature extraction from per-tag RSS / phase / AoA series.

Each included channel contributes 14 statistics (and optionally Daubechies
approximation coefficients); every pair of included series contributes one
Pearson correlation.  A dataset is featurized in stacked passes: its
samples are grouped by series length, and each block of at most 64
samples is prepared, described and correlated as one (samples, series,
n_windows) array.  Each value has the bits of the one-series definition
(numpy's unwrap, interp, histogram and percentile, one dot product per
pair), which the tests keep as the reference.  Conventions for the
ambiguous statistics:

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

# samples per stacked pass; bounds the temporaries of the statistics
_BLOCK_SAMPLES = 64


class ConfigMismatchError(ValueError):
    "A sample lacks a channel the feature configuration requires, or a tag of the dataset."


class SampleFeatureError(ValueError):
    "One sample of a dataset cannot be featurized; ``index`` is its position in the list."

    def __init__(self, index: int, label: str, cause: Exception):
        super().__init__(f"sample {index} (label {label!r}): {type(cause).__name__}: {cause}")
        self.index = index


# --- statistics -------------------------------------------------------------

def _stack_statistics(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Statistics and correlations of the series of m, shape (samples, series, n).

    Returns the (samples, series, 14) statistics in STAT_NAMES order and the
    (samples, pairs) Pearson correlations of each sample's series pairs in
    ``itertools.combinations`` order.  Each value has the bits of the
    one-series definition: axis-1 sums for the moments, numpy's linear
    quantile (type 7) after its own partition, the bins of
    ``np.histogram(v, 16, range=(min, max))`` for mode and entropy, one
    ``ddot`` per pair (a stacked (1, n) @ (n, 1) product), and skewness and
    kurtosis finished on Python floats.  Each group of statistics is taken
    by its own helper, so that its temporaries are freed before the next.
    """
    k, series, n = m.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    m = m.reshape(k * series, n)
    if not np.isfinite(m).all():
        raise ValueError("series contains non-finite values; impute first")
    vmin, vmax = m.min(axis=1), m.max(axis=1)
    rng = vmax - vmin
    varies = rng > 0
    mean, var, std, m3, kurt, skew, corr = _moments(m, varies, k)
    q1, median, q3 = _quartiles(m)
    mode, entropy = _mode_entropy(m, vmin, vmax, rng, varies)
    stats = np.array([mode, median, q1, q3, mean, vmax, vmin,
                      rng, var, std, m3, kurt, skew, entropy]).T
    if not varies.all():
        flat = ~varies
        stats[flat, 0] = stats[flat, 4] = vmin[flat]
        stats[flat, 8:] = 0.0
    return stats.reshape(k, series, 14), corr


def _moments(m: np.ndarray, varies: np.ndarray, k: int):
    "Mean, variance, std, m3, kurtosis and skewness of each row, and the (k, pairs) correlations."
    rows, n = m.shape
    mean = m.sum(axis=1) / n
    d = m - mean[:, None]
    var = (d ** 2).sum(axis=1) / n
    std = np.sqrt(var)
    m3 = (d ** 3).sum(axis=1) / n
    m4 = (d ** 4).sum(axis=1) / n
    skew = [a / s ** 3 if v else 0.0
            for a, s, v in zip(m3.tolist(), std.tolist(), varies.tolist())]
    kurt = [b / w ** 2 - 3.0 if v else 0.0
            for b, w, v in zip(m4.tolist(), var.tolist(), varies.tolist())]

    # one (1, n) @ (n, 1) product per pair, on broadcast views of d
    series = rows // k
    d = d.reshape(k, series, n)
    sq = (d[:, :, None, :] @ d[:, :, :, None])[:, :, 0, 0]
    dots = np.concatenate([(d[:, i, None, None, :] @ d[:, i + 1:, :, None])[:, :, 0, 0]
                           for i in range(series)], axis=1)
    ia, ib = np.triu_indices(series, 1)
    with np.errstate(all="ignore"):  # overflow and 0/0 as the Python float arithmetic
        denom = np.sqrt(sq[:, ia] * sq[:, ib])
        corr = np.minimum(np.maximum(dots / denom, -1.0), 1.0)
    corr[denom == 0] = 0.0
    return mean, var, std, m3, kurt, skew, corr


def _quartiles(m: np.ndarray) -> list[np.ndarray]:
    """q1, median and q3 of each row.

    np.percentile's partition (the same kth list), so that tied zeros of
    either sign land where its own interpolation reads them.
    """
    n = m.shape[1]
    pos = [(n - 1) * frac for frac in (0.25, 0.5, 0.75)]
    los = [int(x) for x in pos]
    part = np.partition(m, sorted({0, -1, *los, *(lo + 1 for lo in los)}), axis=1)
    quartiles = []
    for x, lo in zip(pos, los):
        g = x - lo
        a, b = part[:, lo], part[:, lo + 1]
        diff = b - a
        quartiles.append(b - diff * (1 - g) if g >= 0.5 else a + diff * g)
    return quartiles


def _mode_entropy(m: np.ndarray, vmin: np.ndarray, vmax: np.ndarray, rng: np.ndarray,
                  varies: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Mode and entropy of each row's 16-bin histogram over [min, max].

    The edges of ``np.histogram(v, 16, range=(min, max))``, and its bins,
    which its corrected index formula makes exactly [e_k, e_k+1), the last
    one closed.
    """
    rows, n = m.shape
    edges = np.arange(17.0) * (rng / 16)[:, None] + vmin[:, None]
    edges[:, 16] = vmax
    if ((edges[:, 1:] <= edges[:, :-1]) & varies[:, None]).any():
        raise ValueError("Too many bins for data range. Cannot create 16 finite-sized bins.")
    counts = np.empty((rows, 16), dtype=np.intp)
    below = np.zeros(rows, dtype=np.intp)  # values below the last edge counted
    for j in range(1, 16):
        upto = (m < edges[:, j, None]).sum(axis=1)
        counts[:, j - 1] = upto - below
        below = upto
    counts[:, 15] = n - below
    kmax = counts.argmax(axis=1)
    r = np.arange(rows)
    mode = 0.5 * (edges[r, kmax] + edges[r, kmax + 1])
    full = counts > 0
    p = counts[full] / n
    terms = np.log(p)
    terms *= p
    np.negative(terms, out=terms)  # -(p * log p)
    ends = full.sum(axis=1).cumsum().tolist()
    return mode, [float(terms[a:b].sum()) for a, b in zip([0, *ends], ends)]


# --- Daubechies wavelet filterbank ------------------------------------------

def dwt_single(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One analysis level's approximation coefficients of each series (last axis).

    Half-sample symmetric extension, output length floor((n + len(h) - 1) / 2).
    The frames are gathered C-contiguous (``np.take``), so that a stack's
    product runs one matrix-vector product per series, with its bits.
    """
    x = np.asarray(x, dtype=float)
    n, L = x.shape[-1], h.size
    if n < L:
        raise ValueError(f"series length {n} is shorter than the filter ({L})")
    ext = np.concatenate([x[..., L - 2::-1], x, x[..., :-L - 1:-1]], axis=-1)
    pos = 2 * np.arange((n + L - 1) // 2)[:, None] + 1 + np.arange(L)[None, :]
    return np.take(ext, pos, axis=-1) @ h


def dwt_coeffs(values: np.ndarray) -> np.ndarray:
    "Approximation coefficients of each series (last axis) after WAVELET_LEVELS stages."
    h = np.array(WAVELET_LOWPASS)
    ca = np.asarray(values, dtype=float)
    for _ in range(WAVELET_LEVELS):
        ca = dwt_single(ca, h)
    return ca


# --- series preparation -----------------------------------------------------

def impute_linear(values: np.ndarray) -> np.ndarray:
    """Fill NaNs by linear interpolation (edges copy the nearest valid value).

    Each row of a (rows, n) stack is its own series: one ``np.interp`` runs
    over row-offset coordinates row * (n + 1) + i, so interior gaps take the
    bits of a per-row call, and each row's edges are then copied from its
    own first and last valid values.
    """
    v = np.array(values, dtype=float)
    ok = np.isfinite(v)
    n = v.shape[-1]
    flat, ok = v.reshape(-1, n), ok.reshape(-1, n)
    if not ok.any(axis=1).all():
        raise ValueError("cannot impute an all-missing series")
    if not ok.all():
        x = np.arange(flat.shape[0])[:, None] * (n + 1) + np.arange(n)
        flat[~ok] = np.interp(x[~ok], x[ok], flat[ok])
        col = np.arange(n)
        first = ok.argmax(axis=1)[:, None]
        last = n - 1 - ok[:, ::-1].argmax(axis=1)[:, None]
        np.copyto(flat, np.take_along_axis(flat, first, axis=1), where=col < first)
        np.copyto(flat, np.take_along_axis(flat, last, axis=1), where=col > last)
    return v


def unwrap_valid(phase: np.ndarray) -> np.ndarray:
    """Unwrap the valid entries of a wrapped phase series, keeping NaN gaps.

    Each row of a (rows, n) stack is its own series: its valid values are
    moved to the front in order and followed by zeros (unwrap's corrections
    only carry forward, so they cannot reach the valid values), one
    ``np.unwrap(axis=1)`` runs, and the valid values are scattered back,
    with the bits of a per-row call.
    """
    v = np.array(phase, dtype=float)
    ok = np.isfinite(v)
    if ok.all():
        return np.unwrap(v)
    n = v.shape[-1]
    flat, ok = v.reshape(-1, n), ok.reshape(-1, n)
    packed = np.take_along_axis(flat, np.argsort(~ok, axis=1, kind="stable"), axis=1)
    pad = np.arange(n) >= ok.sum(axis=1)[:, None]
    packed[pad] = 0.0
    flat[ok] = np.unwrap(packed, axis=1)[~pad]
    return v


def prepare_channel(kind: str, values: np.ndarray, n_windows: int) -> np.ndarray:
    """Impute a channel of ``n_windows`` values, unwrapping phase first.

    ``values`` is one series or a (rows, n_windows) stack of them, each row
    prepared as its own series.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-1] != n_windows:
        raise ValueError(f"channel {kind!r} has {v.shape[-1]} values, "
                         f"not n_windows = {n_windows}")
    return impute_linear(unwrap_valid(v) if kind == "phase" else v)


def channel_rows(sample, tags: list[str], kinds: tuple[str, ...], user: str) -> np.ndarray:
    """A sample's raw rows of ``kinds`` per tag, as a (tags x kinds, n_windows) array.

    Rows run tag-major in the given orders.  Raises ConfigMismatchError when
    the sample's sorted tags are not ``tags`` or it lacks a kind for a tag
    (absent, empty or all non-finite), naming ``user`` as what needs it,
    and ValueError naming the tag for a channel that is not ``n_windows``
    long.
    """
    own = sorted(sample.tag_ids)
    if own != tags:
        raise ConfigMismatchError(f"tags {own} differ from sample 0's {tags}")
    if not tags:
        raise ConfigMismatchError(f"{user} needs a tag, and the sample has none")
    n = sample.n_windows
    rows = []
    for tag in tags:
        for kind in kinds:
            raw = getattr(sample, kind).get(tag)
            v = None if raw is None else np.asarray(raw, dtype=float).ravel()
            if v is None or v.size == 0 or not np.isfinite(v).any():
                raise ConfigMismatchError(f"{user} needs channel {kind!r} for tag {tag!r}")
            if v.size != n:
                raise ValueError(f"tag {tag!r}: channel {kind!r} has {v.size} values, "
                                 f"not n_windows = {n}")
            rows.append(v)
    return np.array(rows)


def length_blocks(raw: list[np.ndarray]) -> list[list[int]]:
    "Indices of the samples' raw (series, n) rows, grouped by n, in blocks of at most 64."
    by_length: dict[int, list[int]] = {}
    for i, rows in enumerate(raw):
        by_length.setdefault(rows.shape[1], []).append(i)
    return [idx[start:start + _BLOCK_SAMPLES] for _, idx in sorted(by_length.items())
            for start in range(0, len(idx), _BLOCK_SAMPLES)]


def prepare_rows(raw: list[np.ndarray], kinds: tuple[str, ...]) -> np.ndarray:
    """Prepare the raw (series, n) rows of samples of one n as a (samples, series, n) stack.

    ``kinds[s]`` is the channel of series s in every sample; each kind's
    rows go through one ``prepare_channel`` call, and each row equals
    ``prepare_channel`` on it alone.
    """
    stack = np.array(raw)
    k, _, n = stack.shape
    for kind in CHANNEL_ORDER:
        sel = [s for s, name in enumerate(kinds) if name == kind]
        if sel:
            stack[:, sel] = prepare_channel(kind, stack[:, sel].reshape(-1, n), n) \
                .reshape(k, len(sel), n)
    return stack


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

    @property
    def kinds(self) -> tuple[str, ...]:
        "The included channels in (rss, phase, aoa) order."
        return tuple(kind for kind in CHANNEL_ORDER if kind in self.channels)


FEATURE_CONFIGS = {
    "SP": FeatureConfig("SP", ("phase",), False),
    "SWP": FeatureConfig("SWP", ("phase",), True),
    "SPR": FeatureConfig("SPR", ("phase", "rss"), False),
    "SA": FeatureConfig("SA", ("aoa",), False),
    "SWA": FeatureConfig("SWA", ("aoa",), True),
    "SPRA": FeatureConfig("SPRA", ("phase", "rss", "aoa"), False),
}


def assemble_features(sample, config: FeatureConfig | str,
                      tags: list[str] | None = None) -> np.ndarray:
    """Gather and check one sample's raw channel rows under a configuration.

    Returns the (series, n_windows) rows in layout order: per tag (ascending
    id), per included channel in (rss, phase, aoa) order.  ``tags`` is the
    dataset's tag list (the sample's own when None); a sample with other
    tags, or without a channel the config needs, raises ConfigMismatchError,
    and a channel that is not n_windows long raises ValueError naming its
    tag (see ``channel_rows``).  ``featurize_dataset`` calls it once per
    sample and computes the features of the gathered rows in stacked passes.
    """
    if isinstance(config, str):
        config = FEATURE_CONFIGS[config]
    tags = sorted(sample.tag_ids) if tags is None else tags
    return channel_rows(sample, tags, config.kinds, f"config {config.name}")


def _wavelet_len(samples) -> int:
    "The longest coefficient block of the samples' lengths."
    h_len = len(WAVELET_LOWPASS)
    longest = 0
    for sample in samples:
        n = sample.n_windows
        for _ in range(WAVELET_LEVELS):
            n = (n + h_len - 1) // 2
        longest = max(longest, n)
    return longest


def _layout(tags: list[str], config: FeatureConfig, wavelet_len: int) -> tuple[str, ...]:
    names = [(tag, kind) for tag in tags for kind in config.kinds]
    layout: list[str] = []
    for tag, kind in names:
        layout += [f"{tag}:{kind}:{s}" for s in STAT_NAMES]
        layout += [f"{tag}:{kind}:w{j}" for j in range(wavelet_len)]
    layout += [f"corr:{ta}:{ka}|{tb}:{kb}"
               for (ta, ka), (tb, kb) in itertools.combinations(names, 2)]
    return tuple(layout)


def _feature_rows(m: np.ndarray, wavelet_len: int) -> np.ndarray:
    """Feature rows of prepared series m, shape (samples, series, n).

    Per series its 14 statistics, then (when ``wavelet_len``) its wavelet
    coefficients zero-padded to ``wavelet_len``; then the correlations.
    """
    stats, corr = _stack_statistics(m)
    k, series, _ = m.shape
    blocks = np.zeros((k, series, len(STAT_NAMES) + wavelet_len))
    blocks[:, :, :len(STAT_NAMES)] = stats
    if wavelet_len:
        coeffs = dwt_coeffs(m)
        blocks[:, :, len(STAT_NAMES):len(STAT_NAMES) + coeffs.shape[-1]] = coeffs
    return np.concatenate([blocks.reshape(k, -1), corr], axis=1)


def featurize_dataset(samples, config: FeatureConfig | str):
    """Featurize a sample list under one config; returns (X, layout, labels).

    Layout: per tag (ascending id), per included channel in (rss, phase,
    aoa) order, the 14 statistics then any wavelet coefficients; finally the
    Pearson correlations of all included series pairs in (tag, channel)
    order.  The wavelet block length is fixed dataset-wide at the longest
    observed coefficient vector (shorter blocks zero-padded) so every row
    shares one layout, which is built once.

    ``assemble_features`` gathers each sample's raw rows; they are then
    prepared and featurized in blocks of at most 64 samples of one length
    (``length_blocks``, ``prepare_rows``, ``_feature_rows``), each row with
    the bits of a per-sample pass.  A sample whose features cannot be computed -- other
    tags than sample 0, a missing channel, or one so short or so nearly
    constant that its wavelets, histogram bins or variance degenerate --
    raises SampleFeatureError naming its index and label; with several,
    the first in list order.
    """
    if isinstance(config, str):
        config = FEATURE_CONFIGS[config]
    samples = list(samples)
    if not samples:
        return np.array([]), (), []
    tags = sorted(samples[0].tag_ids)
    raw, failure = [], None
    for i, sample in enumerate(samples):
        try:
            raw.append(assemble_features(sample, config, tags))
        except ValueError as e:
            failure = (i, e)
            break
    wavelet_len = _wavelet_len(samples) if config.wavelet else 0
    layout = _layout(tags, config, wavelet_len)
    x = np.empty((len(raw), len(layout)))
    for part in length_blocks(raw):
        stack = prepare_rows([raw[i] for i in part], config.kinds * len(tags))
        try:
            x[part] = _feature_rows(stack, wavelet_len)
        except (ValueError, ZeroDivisionError) as block_error:
            for i, one in zip(part, stack):  # the block's first failing sample
                try:
                    _feature_rows(one[None], wavelet_len)
                except (ValueError, ZeroDivisionError) as e:
                    if failure is None or i < failure[0]:
                        failure = (i, e)
                    break
            else:
                raise block_error
    if failure is not None:
        i, e = failure
        raise SampleFeatureError(i, samples[i].label, e) from e
    return x, layout, [s.label for s in samples]
