"""Orchestration: synthesize logs and datasets, track, featurize, classify.

Per-sample child seeds come from the run seed plus the sample index, so a
dataset is reproducible sample by sample and samples can be generated in
any order or in parallel.  The command line calls these functions and only
parses arguments and writes artifacts.
"""

from __future__ import annotations

import numpy as np

from .classify import (EvalReport, LabeledDataset, dtw_1nn_classify, evaluate,
                       knn_feature_classify, stratified_split)
from .features import (FEATURE_CONFIGS, SampleFeatureError, channel_rows, featurize_dataset,
                       length_blocks, prepare_rows)
from .geometry import ArrayGeometry, unambiguous_fov
from .readerlog import ReaderLog
from .simulate import (DatasetSpec, GestureSample, SASSchedule, gesture_angles, gesture_sample,
                       gesture_scene, lab_scene, simulate_log)
from .tracking import AoATrack, KalmanConfig, track_aoa


def synthesize_gesture(class_id: str, geometry: ArrayGeometry, schedule: SASSchedule,
                       spec: DatasetSpec, seed) -> ReaderLog:
    "The reader log of one gesture recording with per-sample scene nuisances."
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    rng = np.random.default_rng([*base, 0])
    scene = gesture_scene(geometry, spec, rng)
    angles = gesture_angles(class_id, rng, spec.windows, unambiguous_fov(geometry))
    return simulate_log(scene, schedule, list(angles), [*base, 1])


def gesture_dataset(geometry: ArrayGeometry, schedule: SASSchedule, spec: DatasetSpec,
                    seed: int):
    "Yield (class id, log) per recording; sample i of class c uses child seed [seed, c, i]."
    for ci, class_id in enumerate(spec.classes):
        for i in range(spec.samples_per_class):
            yield class_id, synthesize_gesture(class_id, geometry, schedule, spec, [seed, ci, i])


def synthesize_fixed_log(geometry: ArrayGeometry, schedule: SASSchedule, spec: DatasetSpec,
                         angles: dict[str, float], seed: int) -> ReaderLog:
    """``spec.windows`` windows of tags held at fixed angles (radians).

    Tags take reader slots in sorted id order.  The scene is ``lab_scene``
    with ``spec.nlos_paths`` scatterer paths per tag (anechoic at 0), drawn
    from seed [seed, 0], and ``spec``'s SNR, power, gain and misdetection;
    fixed logs carry no angle texture.  Window t draws from [seed, 1, t].
    """
    tags = tuple(sorted(angles))
    scene = lab_scene(geometry, spec.snr_db, np.random.default_rng([seed, 0]), tags,
                      spec.nlos_paths, spec.nlos_gain_db, tx_power=spec.tx_power,
                      modulation_gain=spec.modulation_gain, misdetect_prob=spec.misdetect_prob)
    return simulate_log(scene, schedule, [np.full(spec.windows, angles[t]) for t in tags],
                        [seed, 1])


def tracked_sample(log: ReaderLog, label: str, geometry: ArrayGeometry, schedule: SASSchedule,
                   kalman: KalmanConfig | None = None,
                   music_search: tuple[float, float] | None = None) -> GestureSample:
    """A recording's labeled sample: ``gesture_sample``'s RSS and phase, AoA from ``track_aoa``.

    Track slot t is acquisition window ``track.first_window + t``, counted
    like the sample's channels from the log's first window; windows missing
    from the track stay NaN (imputed at feature time).
    """
    sample = gesture_sample(log, label, schedule.window_duration_s)
    tracks = track_aoa(log, geometry, music_search=music_search, kalman=kalman,
                       schedule=schedule)
    for tag in sample.tag_ids:
        series = np.full(sample.n_windows, np.nan)
        track = tracks.get(tag)
        if track is not None:
            start = track.first_window - log.first_window
            series[start:start + track.n_windows] = track.smoothed_series()
        sample.aoa[tag] = series
    return sample


def truth_on_track(track: AoATrack, truth: np.ndarray, first_window: int) -> np.ndarray:
    """Ground truth at each track slot, NaN where it has none.

    ``truth[i]`` belongs to acquisition window ``first_window + i``.
    """
    idx = track.first_window - first_window + np.arange(track.n_windows)
    keep = (idx >= 0) & (idx < truth.size)
    out = np.full(idx.size, np.nan)
    out[keep] = truth[idx[keep]]
    return out


def synthesize_dataset(geometry: ArrayGeometry, schedule: SASSchedule, spec: DatasetSpec,
                       seed: int, kalman: KalmanConfig | None = None) -> list[GestureSample]:
    "Full labeled dataset of ``gesture_dataset``, each log a ``tracked_sample``."
    return [tracked_sample(log, label, geometry, schedule, kalman=kalman)
            for label, log in gesture_dataset(geometry, schedule, spec, seed)]


def series_bundles(samples: list[GestureSample], channel: str) -> list[dict[str, np.ndarray]]:
    """Per-sample bundles of one channel's prepared per-tag series, keyed for bundle DTW.

    Keys are ``"<tag>:<channel>"`` for sample 0's sorted tags.  The raw rows
    are gathered and checked by ``channel_rows`` and prepared in stacked
    blocks by ``prepare_rows``, the path ``featurize_dataset`` takes, so each
    series equals ``prepare_channel`` on it alone.  A sample whose channel
    cannot be prepared, or whose tags are not sample 0's, raises
    SampleFeatureError naming its index and label.
    """
    samples = list(samples)
    tags = sorted(samples[0].tag_ids) if samples else []
    raw = []
    for i, sample in enumerate(samples):
        try:
            raw.append(channel_rows(sample, tags, (channel,), f"DTW on {channel!r}"))
        except ValueError as e:
            raise SampleFeatureError(i, sample.label, e) from e
    keys = [f"{tag}:{channel}" for tag in tags]
    bundles: list[dict[str, np.ndarray]] = [{} for _ in raw]
    for part in length_blocks(raw):
        stack = prepare_rows([raw[i] for i in part], (channel,) * len(tags))
        for i, rows in zip(part, stack):
            bundles[i] = dict(zip(keys, rows))
    return bundles


def knn_feature_experiment(x: np.ndarray, labels: list[str], split_seed: int = 0, k: int = 5,
                           test_frac: float = 0.3) -> EvalReport:
    "Stratified split of feature-matrix rows, k-NN on the test rows, metrics."
    train_idx, test_idx = stratified_split(labels, test_frac=test_frac, seed=split_seed)
    classes = tuple(sorted(set(labels)))
    train = LabeledDataset(labels=[labels[i] for i in train_idx],
                           features=x[train_idx], classes=classes)
    preds = [knn_feature_classify(train, x[i], k=k) for i in test_idx]
    return evaluate(preds, [labels[i] for i in test_idx], classes)


def knn_experiment(samples: list[GestureSample], config_name: str, split_seed: int = 0,
                   k: int = 5, test_frac: float = 0.3) -> EvalReport:
    "``knn_feature_experiment`` on the samples' features under the named config."
    x, _, labels = featurize_dataset(samples, FEATURE_CONFIGS[config_name])
    return knn_feature_experiment(x, labels, split_seed, k, test_frac)


def dtw_experiment(samples: list[GestureSample], channel: str, split_seed: int = 0,
                   test_frac: float = 0.3) -> EvalReport:
    """Stratified split, 1-NN DTW on one raw channel, metrics.

    The series come from ``series_bundles``: a sample whose channel cannot
    be prepared raises SampleFeatureError naming its index and label, as
    ``featurize_dataset`` does.
    """
    labels = [s.label for s in samples]
    bundles = series_bundles(samples, channel)
    train_idx, test_idx = stratified_split(labels, test_frac=test_frac, seed=split_seed)
    classes = tuple(sorted(set(labels)))
    train = LabeledDataset(labels=[labels[i] for i in train_idx],
                           bundles=[bundles[i] for i in train_idx],
                           classes=classes)
    preds = dtw_1nn_classify(train, [bundles[i] for i in test_idx])
    return evaluate(preds, [labels[i] for i in test_idx], classes)

