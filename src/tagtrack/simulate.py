"""Synthetic two-antenna reader data.

Per acquisition window each tag's received row m is

    y_m(k) = sum_paths g * sqrt(P) * a_m(theta_path) * s_m(k) + noise(k)

with the round-trip steering vector a, circular Gaussian noise of variance
``noise_var`` per complex sample, and the switching schedule assigning
interleaved sample slots to (antenna, tag) pairs.  The common-oscillator
downconversion cancels the carrier, so s_m(k) = 1 by default; the true
per-slot carrier phase can be re-enabled through the schedule for
sensitivity studies.

Gesture trajectories are parametric synthetic shapes (ramps, sinusoids,
arcs); only their coarse direction-of-motion character is modeled after the
named gestures, and mirrored gesture classes are exact sign-flips.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import ArrayGeometry, steering_phase, unambiguous_fov
from .preprocess import IQWindow
from .readerlog import ReaderLog, ReadRecord


class OutOfFovError(ValueError):
    "A requested trajectory leaves the unambiguous field of view."


@dataclass(frozen=True)
class PathSpec:
    """One propagation path: complex round-trip gain and arrival angle."""

    gain: complex
    aoa: float
    is_los: bool = False


@dataclass
class SASSchedule:
    """Sample interleaving of the switching reader.

    ``samples_per_window`` counts one tag's samples per window over both
    antennas, so each antenna row holds half of them.  Global ADC slot n for
    snapshot k of (antenna m, tag slot i) is n = 4k + 2(m-1) + (i-1).
    """

    samples_per_window: int = 100
    sample_period_s: float = 2.5e-4
    residual_phase: bool = False

    def __post_init__(self):
        if self.samples_per_window < 4 or self.samples_per_window % 2:
            raise ValueError("samples_per_window must be even and >= 4")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be > 0")

    @property
    def cols(self) -> int:
        "Snapshots per antenna per tag per window."
        return self.samples_per_window // 2

    @property
    def window_duration_s(self) -> float:
        return 4 * self.cols * self.sample_period_s

    def global_slots(self, window_idx: int, antenna: int, tag_slot: int) -> np.ndarray:
        k = window_idx * self.cols + np.arange(self.cols)
        return 4 * k + 2 * (antenna - 1) + (tag_slot - 1)

    def tx_sequence(self, window_idx: int, antenna: int, tag_slot: int,
                    carrier_freq_hz: float) -> np.ndarray:
        """Unit-modulus transmit samples x(n) at this row's slots.

        All ones when the residual carrier phase is disabled (the coherent
        common-oscillator default).
        """
        if not self.residual_phase:
            return np.ones(self.cols, dtype=complex)
        slots = self.global_slots(window_idx, antenna, tag_slot)
        frac = math.fmod(carrier_freq_hz * self.sample_period_s, 1.0)
        return np.exp(2j * np.pi * ((frac * slots) % 1.0))


@dataclass
class SimScene:
    """Scene description: geometry, per-tag path lists, power and noise.

    ``misdetect_prob`` is the per-tag per-window per-antenna probability of a
    lost read; a scalar applies to both antennas, a pair sets them
    separately.  ``modulation_gain`` folds the tag's reflection coefficient
    into every path gain.  ``angle_gain_db``/``angle_phase_rad`` optionally
    modulate the tag's gain with |theta|/fov (an even function of the angle),
    giving the RSS and phase channels motion texture that cannot separate
    mirrored gestures.
    """

    geometry: ArrayGeometry
    tags: list[tuple[str, list[PathSpec]]]
    tx_power: float = 1.0
    noise_var: float = 0.0
    misdetect_prob: float | tuple[float, float] = 0.0
    modulation_gain: float = 1.0
    angle_gain_db: float = 0.0
    angle_phase_rad: float = 0.0

    def __post_init__(self):
        if self.tx_power <= 0:
            raise ValueError("tx_power must be > 0")
        if self.noise_var < 0:
            raise ValueError("noise_var must be >= 0")
        if not 0.0 < self.modulation_gain <= 1.0:
            raise ValueError("modulation_gain must be in (0, 1]")
        p = self.misdetect_prob
        probs = (p, p) if np.isscalar(p) else tuple(p)
        if len(probs) != 2 or any(not 0.0 <= q <= 1.0 for q in probs):
            raise ValueError("misdetect_prob must be in [0, 1] per antenna")
        self.misdetect_prob = (float(probs[0]), float(probs[1]))
        for tag_id, paths in self.tags:
            if not paths or not paths[0].is_los:
                raise ValueError(f"tag {tag_id}: first path must be the LoS path")
            los = abs(paths[0].gain)
            for p_ in paths[1:]:
                if p_.is_los:
                    raise ValueError(f"tag {tag_id}: only one LoS path allowed")
                if abs(p_.gain) >= los:
                    raise ValueError(f"tag {tag_id}: NLoS paths must be weaker than LoS")

    def tag_ids(self) -> list[str]:
        return [t for t, _ in self.tags]


def _angle_factor(scene: SimScene, theta: float) -> complex:
    if scene.angle_gain_db == 0.0 and scene.angle_phase_rad == 0.0:
        return 1.0 + 0.0j
    r = min(abs(theta) / unambiguous_fov(scene.geometry), 1.0)
    mag = 10.0 ** (-scene.angle_gain_db * r / 20.0)
    return mag * np.exp(1j * scene.angle_phase_rad * r)


def _tag_steering(scene: SimScene, true_aoa_per_tag: list[float], amp: float) -> list[np.ndarray]:
    """Each tag's summed steering sum_paths g * factor * amp * a(theta_path).

    The second elements of every path's steering vector come from one numpy
    evaluation.  Each tag's terms are then added path by path from zero, in
    the scene's path order; the first elements are the path gains times 1,
    and a sum from +0 is the same with or without that factor.
    """
    angles, gains, counts = [], [], []
    for (_, paths), theta in zip(scene.tags, true_aoa_per_tag):
        factor = _angle_factor(scene, theta)
        for path in paths:
            angles.append(theta if path.is_los else path.aoa)
            gains.append(path.gain * factor * amp)
        counts.append(len(paths))
    phased = (np.array(gains)
              * np.exp(1j * steering_phase(np.array(angles), scene.geometry))).tolist()
    out, start = [], 0
    for n in counts:
        s0 = s1 = 0j
        for g, gp in zip(gains[start:start + n], phased[start:start + n]):
            s0 += g
            s1 += gp
        out.append(np.array([s0, s1]))
        start += n
    return out


def simulate_window(scene: SimScene, schedule: SASSchedule, true_aoa_per_tag: list[float],
                    rng_seed, window_idx: int = 0) -> list[IQWindow]:
    """Simulate one acquisition window; returns one IQWindow per detected tag.

    The LoS path of each tag is steered to the corresponding entry of
    ``true_aoa_per_tag``; NLoS paths keep their fixed scene angles.  A tag
    misdetected on one antenna yields a partial window with that row
    NaN-filled; a tag misdetected on both antennas is omitted.

    Per tag the generator draws the two antennas' misdetection uniforms and
    then, with noise on, a (2, 2, cols) normal block: row m's noise is
    ``z[m, 0] + 1j * z[m, 1]``.
    """
    if not scene.tags:
        raise ValueError("scene has no tags")
    if len(scene.tags) > 2:
        raise ValueError("the 4-slot switching cycle serves at most two tags")
    if len(true_aoa_per_tag) != len(scene.tags):
        raise ValueError("need one true AoA per scene tag")
    rng = np.random.default_rng(rng_seed)
    amp = math.sqrt(scene.tx_power) * scene.modulation_gain
    sigma = math.sqrt(scene.noise_var / 2.0)
    cols = schedule.cols
    mid_t = (window_idx + 0.5) * schedule.window_duration_s
    p1, p2 = scene.misdetect_prob
    out = []
    for slot, ((tag_id, _), steer) in enumerate(
            zip(scene.tags, _tag_steering(scene, true_aoa_per_tag, amp)), start=1):
        u1, u2 = rng.random(2).tolist()
        signal = steer[:, None]
        if schedule.residual_phase:
            signal = signal * np.array([
                schedule.tx_sequence(window_idx, m, min(slot, 2), scene.geometry.carrier_freq_hz)
                for m in (1, 2)])
        if sigma > 0:
            # numpy's normal is 0.0 + sigma * x, never -0.0, so z[m, 0] + 1j * z[m, 1]
            # is exactly the complex number with those parts
            z = rng.normal(scale=sigma, size=(2, 2, cols))
            matrix = np.empty((2, cols), dtype=complex)
            matrix.real = z[:, 0]
            matrix.imag = z[:, 1]
            matrix += signal
        else:
            matrix = np.broadcast_to(signal, (2, cols)) + 0.0  # noise-free rows, a new array
        missing = (u1 < p1, u2 < p2)
        if all(missing):
            continue
        for m in (0, 1):
            if missing[m]:
                matrix[m] = np.nan
        out.append(IQWindow(tag_id=tag_id, window_idx=window_idx, matrix=matrix,
                            midpoint_time_s=mid_t, complete=not any(missing)))
    return out


# --- gesture trajectories ------------------------------------------------


@dataclass(frozen=True)
class TagTrajectory:
    """Parametric angle-vs-time shape for one tag (angles in radians).

    ramp(start, end): smoothstep from start to end.
    sine(center, amp, cycles, phase0): center + amp*sin(2*pi*cycles*u + phase0).
    arc(start, amp): start + amp*(1 - cos(2*pi*u))/2, out and back.
    const(value): fixed angle.
    """

    kind: str
    params: tuple[float, ...]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        p = self.params
        if self.kind == "ramp":
            s = u * u * (3.0 - 2.0 * u)
            return p[0] + (p[1] - p[0]) * s
        if self.kind == "sine":
            return p[0] + p[1] * np.sin(2.0 * np.pi * p[2] * u + p[3])
        if self.kind == "arc":
            return p[0] + p[1] * 0.5 * (1.0 - np.cos(2.0 * np.pi * u))
        if self.kind == "const":
            return np.full_like(u, p[0])
        raise ValueError(f"unknown trajectory kind {self.kind!r}")

    def mirrored(self) -> "TagTrajectory":
        "Exact sign-flip of the angle series."
        if self.kind == "sine":
            center, ampl, cycles, phase0 = self.params
            return TagTrajectory("sine", (-center, -ampl, cycles, phase0))
        return TagTrajectory(self.kind, tuple(-v for v in self.params))


@dataclass(frozen=True)
class GestureSpec:
    """A labeled multi-tag gesture: per-tag trajectories on a window grid."""

    class_id: str
    trajectories: tuple[TagTrajectory, ...]
    duration_s: float
    windows: int

    def mirrored(self, class_id: str) -> "GestureSpec":
        return GestureSpec(class_id, tuple(t.mirrored() for t in self.trajectories),
                           self.duration_s, self.windows)


def gesture_trajectory(spec: GestureSpec, tag_index: int) -> np.ndarray:
    "Angle series (radians) at the window midpoints for one tag."
    if not 0 <= tag_index < len(spec.trajectories):
        raise IndexError(f"tag_index {tag_index} out of range")
    u = (np.arange(spec.windows) + 0.5) / spec.windows
    return spec.trajectories[tag_index](u)


def _deg(x):
    return math.radians(x)


def _class_trajectories(class_id: str, scale: float, off: float) -> tuple[TagTrajectory, ...]:
    "Trajectory pair of a base class; every angle moves one-for-one with ``off``."
    if class_id == "SL":
        return (TagTrajectory("ramp", (off - scale * _deg(12), off + scale * _deg(12))),
                TagTrajectory("const", (off - _deg(6),)))
    if class_id == "LAC":
        return (TagTrajectory("sine", (off - _deg(4), scale * _deg(9), 1.0, -math.pi / 2)),
                TagTrajectory("const", (off - _deg(8),)))
    if class_id == "2HLR":
        return (TagTrajectory("ramp", (off - _deg(3), off - scale * _deg(14))),
                TagTrajectory("ramp", (off + _deg(3), off + scale * _deg(14))))
    if class_id == "2HIC":
        return (TagTrajectory("arc", (off - _deg(11), scale * _deg(9))),
                TagTrajectory("arc", (off + _deg(11), -scale * _deg(9))))
    raise ValueError(f"unknown gesture class {class_id!r}")


_FOV_MARGIN = 1e-9  # radians a shifted trajectory keeps inside the FOV, against rounding


def build_gesture_spec(class_id: str, rng: np.random.Generator,
                       duration_s: float = 2.0, windows: int = 24,
                       fov: float | None = None) -> GestureSpec:
    """Draw a jittered trajectory pair for one of the eight gesture classes.

    SR, RAC, 2HLD and 2HOC are exact mirrors of SL, LAC, 2HLR and 2HIC; the
    same generator draw is negated so mirrored pairs stay sign-symmetric.
    With ``fov`` given, a drawn offset that carries the window-sampled
    trajectory past +-fov is shifted back until it lies just inside; specs
    already inside are unchanged, and no extra draw is made.
    """
    mirrors = {"SR": "SL", "RAC": "LAC", "2HLD": "2HLR", "2HOC": "2HIC"}
    if class_id in mirrors:
        return build_gesture_spec(mirrors[class_id], rng, duration_s, windows,
                                  fov).mirrored(class_id)
    scale = rng.uniform(0.9, 1.1)
    off = _deg(rng.normal(0.0, 1.0))
    spec = GestureSpec(class_id, _class_trajectories(class_id, scale, off), duration_s, windows)
    if fov is None:
        return spec
    series = np.concatenate([gesture_trajectory(spec, i) for i in range(len(spec.trajectories))])
    if series.max() > fov:
        off -= series.max() - fov + _FOV_MARGIN
    elif series.min() < -fov:
        off += -fov - series.min() + _FOV_MARGIN
    else:
        return spec
    return GestureSpec(class_id, _class_trajectories(class_id, scale, off), duration_s, windows)


GESTURE_CLASSES = ("SL", "SR", "LAC", "RAC", "2HLR", "2HLD", "2HIC", "2HOC")


# --- gesture-level simulation ---------------------------------------------

@dataclass
class GestureSample:
    """One labeled recording: per-tag truth, RSS and phase series.

    The smoothed AoA channel is filled in by the tracking stage; RSS/phase
    are the antenna-1 window aggregates, NaN where the read was lost.
    """

    label: str
    tag_ids: list[str]
    truth: dict[str, np.ndarray]
    rss: dict[str, np.ndarray]
    phase: dict[str, np.ndarray]
    aoa: dict[str, np.ndarray] = field(default_factory=dict)
    n_windows: int = 0
    dt_s: float = 0.0


def _window_seeds(base: list, windows: int) -> list:
    """Child seeds ``[*base, t]`` of windows t < ``windows``.

    SeedSequence converts a list one int at a time, a third of the cost of
    ``default_rng``.  When every seed is an int in [0, 2**32), each is one
    32-bit entropy word either way, so the rows of a uint32 array give the
    same generators at less cost.
    """
    if all(type(v) is int and 0 <= v < 2 ** 32 for v in base):
        words = np.empty((windows, len(base) + 1), dtype=np.uint32)
        words[:, :-1] = base
        words[:, -1] = np.arange(windows)
        return list(words)
    return [[*base, t] for t in range(windows)]


def simulate_log(scene: SimScene, schedule: SASSchedule, angles: list[np.ndarray],
                 rng_seed) -> ReaderLog:
    """Reader log of one recording; ``angles[i]`` is tag i's LoS angle per window.

    Window t uses child seed ``[*rng_seed, t]``, so logs are reproducible
    window by window.  Every window gets one record per tag and antenna,
    undetected where the read was lost, stamped with the row's first sample
    slot; records come in time order.  A row's RSS and phase are those of
    its mean IQ sample.  The angles become the truth sidecar.
    """
    tag_ids = scene.tag_ids()
    records: list[ReadRecord] = []
    base = list(rng_seed) if isinstance(rng_seed, (list, tuple)) else [rng_seed]
    cols, period = schedule.cols, schedule.sample_period_s
    # rows in time order; a row's first snapshot is global slot 4k + 2(m-1) + (i-1)
    # with k = t * cols, so it sits at `offset` = 2(m-1) + (i-1) in its window
    rows = [(m, tag, 2 * (m - 1) + min(slot, 2) - 1)
            for m in (1, 2) for slot, tag in enumerate(tag_ids, start=1)]
    for t, seed in enumerate(_window_seeds(base, len(angles[0]))):
        windows = {w.tag_id: w for w in
                   simulate_window(scene, schedule, [a[t] for a in angles], seed, window_idx=t)}
        means = {tag: (w.matrix.sum(axis=1) / cols).tolist() for tag, w in windows.items()}
        for m, tag, offset in rows:
            t_row = float(4 * t * cols + offset) * period
            mean_iq = means[tag][m - 1] if tag in means else math.nan
            if cmath.isnan(mean_iq):  # lost read: no window, or a NaN-filled row
                records.append(ReadRecord(t, t_row, tag, m, None, math.nan, math.nan, False))
            else:
                records.append(ReadRecord(t, t_row, tag, m, windows[tag].matrix[m - 1],
                                          20.0 * math.log10(abs(mean_iq)),
                                          math.atan2(mean_iq.imag, mean_iq.real), True))
    truth = {tag: np.array(a, dtype=float) for tag, a in zip(tag_ids, angles)}
    return ReaderLog(records=records, truth=truth).validate()


def gesture_sample(log: ReaderLog, label: str, dt_s: float) -> GestureSample:
    """Channel series of a recording from its reader log.

    RSS and phase are the antenna-1 window aggregates on the window grid
    starting at the log's first window index, NaN where the read was lost.
    """
    tags = log.tag_ids
    first = log.first_window
    T = 1 + max(r.window_idx for r in log.records) - first
    rss = {t: np.full(T, np.nan) for t in tags}
    phase = {t: np.full(T, np.nan) for t in tags}
    for r in log.records:
        if r.detected and r.antenna == 1:
            rss[r.tag_id][r.window_idx - first] = r.rss_dbm
            phase[r.tag_id][r.window_idx - first] = r.phase_rad
    return GestureSample(label=label, tag_ids=tags, truth=log.truth or {}, rss=rss,
                         phase=phase, n_windows=T, dt_s=dt_s)


def simulate_gesture(spec: GestureSpec, scene: SimScene, schedule: SASSchedule,
                     rng_seed) -> tuple[GestureSample, ReaderLog]:
    """Simulate a full gesture: reader log plus derived channel series.

    Window t of the log uses the trajectory angles at that window's midpoint
    and a per-window child seed, so logs are reproducible sample by sample.
    """
    n_tags = len(scene.tags)
    if len(spec.trajectories) != n_tags:
        raise ValueError(f"gesture needs {len(spec.trajectories)} tags, scene has {n_tags}")
    fov = unambiguous_fov(scene.geometry)
    trajs = [gesture_trajectory(spec, i) for i in range(n_tags)]
    for tag_i, series in enumerate(trajs):
        if np.max(np.abs(series)) > fov:
            raise OutOfFovError(
                f"tag {tag_i} trajectory reaches {math.degrees(np.max(np.abs(series))):.1f} deg, "
                f"outside the +-{math.degrees(fov):.1f} deg field of view")
    log = simulate_log(scene, schedule, trajs, rng_seed)
    return gesture_sample(log, spec.class_id, schedule.window_duration_s), log


# --- canned scenes ---------------------------------------------------------

GAIN_JITTER_DB = 1.0     # gesture_scene's per-sample tag level draw, +- dB
PHASE_JITTER_RAD = 0.4   # gesture_scene's per-sample tag phase draw, +- rad

def paper_geometry() -> ArrayGeometry:
    "865.7 MHz carrier with 0.8-wavelength element spacing."
    from .geometry import SPEED_OF_LIGHT
    lam = SPEED_OF_LIGHT / 865.7e6
    return ArrayGeometry(865.7e6, 0.8 * lam)


def los_paths() -> list[PathSpec]:
    return [PathSpec(1.0 + 0.0j, 0.0, is_los=True)]


def nlos_paths(rng: np.random.Generator, geometry: ArrayGeometry,
               n_paths: int = 2, gain_db: float = -13.5) -> list[PathSpec]:
    "Random scatterer paths, each gain_db below the unit LoS gain."
    fov = unambiguous_fov(geometry)
    mag = 10.0 ** (gain_db / 20.0)
    return [PathSpec(mag * np.exp(2j * np.pi * rng.random()),
                     rng.uniform(-fov, fov), is_los=False)
            for _ in range(n_paths)]


def anechoic_scene(geometry: ArrayGeometry, snr_db: float,
                   tag_ids: tuple[str, ...] = ("tag1",), **kwargs) -> SimScene:
    "Line-of-sight only; unit LoS gain so SNR sets the noise floor directly."
    noise_var = 10.0 ** (-snr_db / 10.0)
    return SimScene(geometry, [(t, los_paths()) for t in tag_ids],
                    noise_var=noise_var, **kwargs)


def lab_scene(geometry: ArrayGeometry, snr_db: float, rng: np.random.Generator,
              tag_ids: tuple[str, ...] = ("tag1",), n_paths: int = 2,
              nlos_gain_db: float = -13.5, **kwargs) -> SimScene:
    "Anechoic scene plus random weak scatterer paths per tag."
    noise_var = 10.0 ** (-snr_db / 10.0)
    tags = [(t, los_paths() + nlos_paths(rng, geometry, n_paths, nlos_gain_db))
            for t in tag_ids]
    return SimScene(geometry, tags, noise_var=noise_var, **kwargs)


def gesture_scene(geometry: ArrayGeometry, snr_db: float, rng: np.random.Generator,
                  tag_ids: tuple[str, str] = ("tag1", "tag2"),
                  misdetect_prob: float = 0.05, n_paths: int = 2,
                  nlos_gain_db: float = -13.5, angle_gain_db: float = 2.5,
                  angle_phase_rad: float = 1.2, tx_power: float = 1.0,
                  modulation_gain: float = 1.0) -> SimScene:
    """Lab-like two-tag scene with per-sample nuisance draws.

    Each tag's LoS gain gets a random level and phase offset so absolute
    RSS/phase are weak class cues; the angle-modulated texture remains.
    """
    scene = lab_scene(geometry, snr_db, rng, tag_ids, n_paths, nlos_gain_db,
                      misdetect_prob=misdetect_prob, angle_gain_db=angle_gain_db,
                      angle_phase_rad=angle_phase_rad, tx_power=tx_power,
                      modulation_gain=modulation_gain)
    tags = []
    for tag_id, paths in scene.tags:
        level = 10.0 ** (rng.uniform(-GAIN_JITTER_DB, GAIN_JITTER_DB) / 20.0)
        rot = np.exp(1j * rng.uniform(-PHASE_JITTER_RAD, PHASE_JITTER_RAD))
        tags.append((tag_id, [replace(p, gain=p.gain * level * rot) for p in paths]))
    scene.tags = tags
    return scene
