"""Orchestration: synthesize logs and datasets, track, featurize, classify.

Per-sample child seeds come from the run seed plus the sample index, so a
dataset is reproducible sample by sample and samples can be generated in
any order or in parallel.  The command line calls these functions and only
parses arguments and writes artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import (EvalReport, LabeledDataset, dtw_1nn_classify, evaluate,
                       knn_feature_classify, stratified_split)
from .features import FEATURE_CONFIGS, SampleFeatureError, featurize_dataset, prepare_channel
from .geometry import ArrayGeometry, unambiguous_fov
from .readerlog import ReaderLog
from .simulate import (GESTURE_CLASSES, GestureSample, SASSchedule, anechoic_scene,
                       build_gesture_spec, gesture_scene, lab_scene, simulate_gesture,
                       simulate_log)
from .tracking import AoATrack, KalmanConfig, track_aoa


@dataclass
class DatasetSpec:
    """Synthetic gesture dataset description."""

    classes: tuple[str, ...] = GESTURE_CLASSES
    samples_per_class: int = 40
    windows: int = 24
    snr_db: float = 10.0
    misdetect_prob: float = 0.05
    nlos_paths: int = 2
    nlos_gain_db: float = -13.5
    angle_gain_db: float = 2.5
    angle_phase_rad: float = 1.2
    tx_power: float = 1.0
    modulation_gain: float = 1.0


def synthesize_gesture(class_id: str, geometry: ArrayGeometry, schedule: SASSchedule,
                       spec: DatasetSpec, seed) -> tuple[GestureSample, ReaderLog]:
    "One labeled gesture recording with per-sample scene nuisances."
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    rng = np.random.default_rng([*base, 0])
    scene = gesture_scene(geometry, spec.snr_db, rng,
                          misdetect_prob=spec.misdetect_prob, n_paths=spec.nlos_paths,
                          nlos_gain_db=spec.nlos_gain_db, angle_gain_db=spec.angle_gain_db,
                          angle_phase_rad=spec.angle_phase_rad, tx_power=spec.tx_power,
                          modulation_gain=spec.modulation_gain)
    gesture = build_gesture_spec(class_id, rng,
                                 duration_s=spec.windows * schedule.window_duration_s,
                                 windows=spec.windows, fov=unambiguous_fov(geometry))
    return simulate_gesture(gesture, scene, schedule, rng_seed=[*base, 1])


def gesture_dataset(geometry: ArrayGeometry, schedule: SASSchedule, spec: DatasetSpec,
                    seed: int):
    "Yield (sample, log) per recording; sample i of class c uses child seed [seed, c, i]."
    for ci, class_id in enumerate(spec.classes):
        for i in range(spec.samples_per_class):
            yield synthesize_gesture(class_id, geometry, schedule, spec, seed=[seed, ci, i])


def synthesize_fixed_log(geometry: ArrayGeometry, schedule: SASSchedule, spec: DatasetSpec,
                         angles: dict[str, float], seed: int) -> ReaderLog:
    """``spec.windows`` windows of tags held at fixed angles (radians).

    Tags take reader slots in sorted id order.  The scatterer paths draw
    from seed [seed, 0] (anechoic when ``spec.nlos_paths`` is 0) and window
    t from [seed, 1, t].
    """
    tags = tuple(sorted(angles))
    kwargs = dict(tag_ids=tags, tx_power=spec.tx_power, modulation_gain=spec.modulation_gain,
                  misdetect_prob=spec.misdetect_prob)
    if spec.nlos_paths > 0:
        scene = lab_scene(geometry, spec.snr_db, np.random.default_rng([seed, 0]),
                          n_paths=spec.nlos_paths, nlos_gain_db=spec.nlos_gain_db, **kwargs)
    else:
        scene = anechoic_scene(geometry, spec.snr_db, **kwargs)
    return simulate_log(scene, schedule, [np.full(spec.windows, angles[t]) for t in tags],
                        [seed, 1])


def attach_tracks(sample: GestureSample, log: ReaderLog, geometry: ArrayGeometry,
                  kalman: KalmanConfig | None = None,
                  schedule: SASSchedule | None = None,
                  music_search: tuple[float, float] | None = None) -> GestureSample:
    """Run the tracking chain on the log and fill the sample's AoA channel.

    Track slot t is acquisition window ``track.first_window + t``, counted
    like the sample's channels from the log's first window; windows missing
    from the track stay NaN (imputed at feature time).
    """
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
    "Full labeled dataset of ``gesture_dataset``, each sample with its AoA channel tracked."
    return [attach_tracks(sample, log, geometry, kalman=kalman, schedule=schedule)
            for sample, log in gesture_dataset(geometry, schedule, spec, seed)]


def series_bundle(sample: GestureSample, channel: str) -> dict[str, np.ndarray]:
    "Per-tag prepared series of one channel, keyed for bundle DTW; errors name the tag."
    out = {}
    for tag in sorted(sample.tag_ids):
        raw = getattr(sample, channel).get(tag)
        if raw is None:
            raise ValueError(f"tag {tag!r} has no {channel!r} channel")
        try:
            out[f"{tag}:{channel}"] = prepare_channel(channel, raw, sample.n_windows)
        except ValueError as e:
            raise ValueError(f"tag {tag!r}: {e}") from e
    return out


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

    A sample whose channel cannot be prepared raises SampleFeatureError
    naming its index and label, as ``featurize_dataset`` does.
    """
    labels = [s.label for s in samples]
    bundles = []
    for i, sample in enumerate(samples):
        try:
            bundles.append(series_bundle(sample, channel))
        except ValueError as e:
            raise SampleFeatureError(i, sample.label, e) from e
    train_idx, test_idx = stratified_split(labels, test_frac=test_frac, seed=split_seed)
    classes = tuple(sorted(set(labels)))
    train = LabeledDataset(labels=[labels[i] for i in train_idx],
                           bundles=[bundles[i] for i in train_idx],
                           classes=classes)
    preds = [dtw_1nn_classify(train, bundles[i]) for i in test_idx]
    return evaluate(preds, [labels[i] for i in test_idx], classes)

