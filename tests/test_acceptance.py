"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Monte-Carlo criteria use fixed seeds, so the suite is
deterministic.
"""

import functools
import hashlib
import math
import time
from pathlib import Path

import numpy as np

from tagtrack.classify import LabeledDataset, dtw_1nn_classify, evaluate, \
    knn_feature_classify, stratified_split
from tagtrack.cli import main as cli_main
from tagtrack.features import featurize_dataset
from tagtrack.music import eig2_hermitian, estimate_aoa, music_spectrum, sample_covariance
from tagtrack.pipeline import (DatasetSpec, dtw_experiment, knn_experiment,
                               series_bundle, synthesize_dataset, synthesize_gesture)
from tagtrack.preprocess import IQWindow
from tagtrack.simulate import (SASSchedule, anechoic_scene, lab_scene,
                               paper_geometry, simulate_window)
from tagtrack.tracking import KalmanConfig, filter_sequence, rts_smooth, track_aoa

GEO = paper_geometry()
SCHED = SASSchedule()


def report(num: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def mean_abs_error_deg(scene_fn, theta_deg, n_seeds=100, seed_base=0):
    errs = []
    theta = math.radians(theta_deg)
    for s in range(n_seeds):
        scene = scene_fn(np.random.default_rng([seed_base, s]))
        w = simulate_window(scene, SCHED, [theta], [seed_base + 1, s])[0]
        m = estimate_aoa(w, GEO)
        errs.append(abs(math.degrees(m.theta_hat) - theta_deg))
    return float(np.mean(errs))


@functools.lru_cache(maxsize=None)
def anechoic_mean_error() -> float:
    return mean_abs_error_deg(lambda rng: anechoic_scene(GEO, 20.0), 15.0, seed_base=200)


@functools.lru_cache(maxsize=None)
def lab_mean_error() -> float:
    return mean_abs_error_deg(lambda rng: lab_scene(GEO, 20.0, rng), 15.0, seed_base=300)


@functools.lru_cache(maxsize=None)
def gesture_dataset(seed: int):
    spec = DatasetSpec(samples_per_class=40, snr_db=10.0, misdetect_prob=0.05)
    return synthesize_dataset(GEO, SCHED, spec, seed=seed)


def test_criterion_01_noiseless_exactness():
    t0 = time.perf_counter()
    scene = anechoic_scene(GEO, 20.0)
    scene.noise_var = 0.0
    worst = 0.0
    for deg in np.arange(-18.0, 18.0001, 0.5):
        w = simulate_window(scene, SCHED, [math.radians(deg)], 0)[0]
        m = estimate_aoa(w, GEO)
        worst = max(worst, abs(math.degrees(m.theta_hat) - deg))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 0.02 and elapsed < 5.0,
           f"noiseless sweep max error {worst:.4f} deg (<= 0.02), {elapsed:.2f} s (< 5 s)")


def test_criterion_02_anechoic_tolerance():
    mean = anechoic_mean_error()
    report(2, 0.0 <= mean <= 1.5,
           f"anechoic 20 dB at 15 deg: mean error {mean:.3f} deg in [0, 1.5]")


def test_criterion_03_multipath_degradation():
    lab = lab_mean_error()
    chamber = anechoic_mean_error()
    report(3, 1.5 <= lab <= 5.0 and lab > chamber,
           f"lab-like at 15 deg: mean error {lab:.3f} deg in [1.5, 5.0], "
           f"> anechoic {chamber:.3f}")


def test_criterion_04_two_tags():
    errs = {-15.0: [], -10.0: []}
    for s in range(100):
        rng = np.random.default_rng([400, s])
        scene = lab_scene(GEO, 20.0, rng, tag_ids=("A", "B"))
        ws = simulate_window(scene, SCHED, [math.radians(-15.0), math.radians(-10.0)],
                             [401, s])
        errs[-15.0].append(abs(math.degrees(estimate_aoa(ws[0], GEO).theta_hat) + 15.0))
        errs[-10.0].append(abs(math.degrees(estimate_aoa(ws[1], GEO).theta_hat) + 10.0))
    m15, m10 = float(np.mean(errs[-15.0])), float(np.mean(errs[-10.0]))
    report(4, m15 <= 4.0 and m10 <= 4.0,
           f"two tags: mean errors {m15:.3f} / {m10:.3f} deg (each <= 4.0)")


def _simulate_linear(T, cfg, rng):
    x = np.array([0.0, 0.05])
    truth = np.empty((T, 2))
    z = np.empty(T)
    for t in range(T):
        x = cfg.f_matrix @ x + rng.normal(size=2) * [cfg.sigma_theta, cfg.sigma_omega]
        truth[t] = x
        z[t] = x[0] + rng.normal() * cfg.sigma_v
    return truth, z


def _batch_map(z, valid, cfg, x0):
    T = z.size
    f = cfg.f_matrix
    qi = np.linalg.inv(cfg.q_matrix)
    n = 2 * (T + 1)
    a = np.zeros((n, n))
    b = np.zeros(n)
    a[:2, :2] += np.linalg.inv(cfg.p0)
    b[:2] += np.linalg.inv(cfg.p0) @ x0
    r = cfg.sigma_v ** 2
    for t in range(1, T + 1):
        i0, i1 = 2 * (t - 1), 2 * t
        a[i1:i1 + 2, i1:i1 + 2] += qi
        a[i0:i0 + 2, i0:i0 + 2] += f.T @ qi @ f
        a[i1:i1 + 2, i0:i0 + 2] -= qi @ f
        a[i0:i0 + 2, i1:i1 + 2] -= f.T @ qi
        if valid[t - 1]:
            a[i1, i1] += 1.0 / r
            b[i1] += z[t - 1] / r
    return np.linalg.solve(a, b)[2:].reshape(T, 2)


def test_criterion_05_smoother_oracle_and_rmse_ordering():
    cfg = KalmanConfig(dt=1.0)
    # (a) smoothed == batch MAP within 1e-8 rad on fully observed T=20 tracks
    worst_gap = 0.0
    for seed in range(20):
        rng = np.random.default_rng([500, seed])
        _, z = _simulate_linear(20, cfg, rng)
        track = rts_smooth(filter_sequence(z, cfg))
        oracle = _batch_map(z, np.ones(20, bool), cfg, np.array([z[0], 0.0]))
        worst_gap = max(worst_gap, float(np.abs(track.smoothed - oracle).max()))
        for t in range(20):
            assert np.trace(track.smoothed_covs[t]) <= np.trace(track.post_covs[t]) + 1e-12
    # (b) Monte-Carlo RMSE ordering over 200 seeds
    sq = {"raw": 0.0, "filt": 0.0, "smooth": 0.0}
    for seed in range(200):
        rng = np.random.default_rng([501, seed])
        truth, z = _simulate_linear(20, cfg, rng)
        track = rts_smooth(filter_sequence(z, cfg))
        sq["raw"] += float(np.sum((z - truth[:, 0]) ** 2))
        sq["filt"] += float(np.sum((track.posts[:, 0] - truth[:, 0]) ** 2))
        sq["smooth"] += float(np.sum((track.smoothed[:, 0] - truth[:, 0]) ** 2))
    ok = worst_gap <= 1e-8 and sq["smooth"] <= sq["filt"] <= sq["raw"]
    rmse = {k: math.sqrt(v / (200 * 20)) for k, v in sq.items()}
    report(5, ok,
           f"MAP gap {worst_gap:.2e} rad (<= 1e-8); RMSE smoothed {rmse['smooth']:.4f} "
           f"<= filtered {rmse['filt']:.4f} <= raw {rmse['smooth'] and rmse['raw']:.4f}")


def test_criterion_06_missing_measurement_contract():
    spec = DatasetSpec(samples_per_class=1, snr_db=20.0, misdetect_prob=0.0,
                       nlos_paths=0)
    ratios = []
    bitwise_ok = True
    cfg = KalmanConfig(dt=SCHED.window_duration_s)
    for seed in range(10):
        sample, log = synthesize_gesture("SL", GEO, SCHED, spec, seed=[600, seed])
        track_full = track_aoa(log, GEO)["tag1"]
        truth = log.truth["tag1"]
        T = track_full.n_windows
        z = track_full.z.copy()
        rng = np.random.default_rng([601, seed])
        deleted = rng.choice(T, size=max(1, T // 5), replace=False)
        z[deleted] = np.nan
        gap_track = rts_smooth(filter_sequence(z, cfg))
        for t in deleted:
            if not (np.array_equal(gap_track.posts[t], gap_track.priors[t]) and
                    np.array_equal(gap_track.post_covs[t], gap_track.prior_covs[t])):
                bitwise_ok = False
        full_rmse = float(np.sqrt(np.mean((track_full.smoothed_series() - truth) ** 2)))
        gap_rmse = float(np.sqrt(np.mean((gap_track.smoothed_series() - truth) ** 2)))
        ratios.append(gap_rmse / full_rmse)
    worst = max(ratios)
    report(6, bitwise_ok and worst <= 2.0,
           f"posterior == prior bitwise at deleted windows; worst RMSE ratio "
           f"{worst:.2f}x (<= 2x)")


def test_criterion_07_ambiguity_property():
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(50):
        y = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        w = IQWindow("t", 0, y, 0.0, True)
        eig = eig2_hermitian(sample_covariance(w))
        theta = rng.uniform(-0.25, 0.25)
        alias = math.asin(math.sin(theta) + 0.625)
        s1 = music_spectrum(theta, eig.u_n, GEO)
        s2 = music_spectrum(alias, eig.u_n, GEO)
        worst = max(worst, abs(s1 - s2) / s1)
    report(7, worst <= 1e-9,
           f"spectrum at theta vs sin-offset-0.625 alias: worst rel diff {worst:.2e} (<= 1e-9)")


def test_criterion_08_feature_config_trend():
    t0 = time.perf_counter()
    accs = {"SPRA": [], "SPR": [], "dtw_aoa": [], "dtw_phase": []}
    for i in range(5):
        samples = gesture_dataset(100 + i)
        accs["SPRA"].append(knn_experiment(samples, "SPRA", split_seed=i).accuracy)
        accs["SPR"].append(knn_experiment(samples, "SPR", split_seed=i).accuracy)
        accs["dtw_aoa"].append(dtw_experiment(samples, "aoa", split_seed=i).accuracy)
        accs["dtw_phase"].append(dtw_experiment(samples, "phase", split_seed=i).accuracy)
    elapsed = time.perf_counter() - t0
    means = {k: float(np.mean(v)) for k, v in accs.items()}
    knn_gap = means["SPRA"] - means["SPR"]
    dtw_gap = means["dtw_aoa"] - means["dtw_phase"]
    ok = knn_gap >= 10.0 and dtw_gap >= 10.0 and elapsed < 180.0
    report(8, ok,
           f"k-NN SPRA {means['SPRA']:.1f} vs SPR {means['SPR']:.1f} (+{knn_gap:.1f} pts); "
           f"DTW AoA {means['dtw_aoa']:.1f} vs phase {means['dtw_phase']:.1f} "
           f"(+{dtw_gap:.1f} pts); {elapsed:.0f} s (< 180 s)")


def test_criterion_09_mirrored_gesture_separation():
    samples = gesture_dataset(100)
    results = {}
    for pair in (("SL", "SR"), ("2HLR", "2HLD")):
        subset = [s for s in samples if s.label in pair]
        labels = [s.label for s in subset]
        train_idx, test_idx = stratified_split(labels, seed=9)
        classes = tuple(sorted(pair))
        # AoA tracks alone: 1-NN DTW on the smoothed AoA series
        bundles = [series_bundle(s, "aoa") for s in subset]
        train = LabeledDataset(labels=[labels[i] for i in train_idx],
                               bundles=[bundles[i] for i in train_idx], classes=classes)
        preds = [dtw_1nn_classify(train, bundles[i]) for i in test_idx]
        aoa_acc = evaluate(preds, [labels[i] for i in test_idx], classes).accuracy
        # phase-channel-only k-NN (SP features)
        x, _, _ = featurize_dataset(subset, "SP")
        ftrain = LabeledDataset(labels=[labels[i] for i in train_idx],
                                features=x[train_idx], classes=classes)
        fpreds = [knn_feature_classify(ftrain, x[i], k=5) for i in test_idx]
        phase_acc = evaluate(fpreds, [labels[i] for i in test_idx], classes).accuracy
        results[pair] = (aoa_acc, phase_acc)
    ok = all(aoa >= 95.0 and phase < 95.0 for aoa, phase in results.values())
    detail = "; ".join(f"{a}/{b}: AoA {v[0]:.1f}% vs phase {v[1]:.1f}%"
                       for (a, b), v in results.items())
    report(9, ok, f"mirrored pairs (AoA >= 95, phase below): {detail}")


def test_criterion_10_demo_determinism(tmp_path):
    args = ["--seed", "1", "--set", "scene.samples_per_class=4",
            "--set", "scene.windows=16"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["demo", "--out", str(out_a), *args]) == 0
    assert cli_main(["demo", "--out", str(out_b), *args]) == 0

    def digest(root: Path):
        return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}
    da, db = digest(out_a), digest(out_b)
    identical = da == db
    import json
    rep = json.loads((out_a / "report.json").read_text())
    gain = rep["accuracy_SPRA"] - rep["accuracy_SPR"]
    ok = identical and rep["accuracy_SPRA"] > rep["accuracy_SPR"]
    report(10, ok,
           f"demo rerun byte-identical over {len(da)} artifacts; "
           f"SPRA {rep['accuracy_SPRA']:.1f}% > SPR {rep['accuracy_SPR']:.1f}% "
           f"(+{gain:.1f} pts)")
