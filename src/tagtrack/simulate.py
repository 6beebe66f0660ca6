"""Synthetic two-antenna reader data.

Per acquisition window each tag's received row m is

    y_m(k) = sum_paths g * sqrt(P) * a_m(theta_path) * s_m(k) + noise(k)

with the round-trip steering vector a, circular Gaussian noise of variance
``noise_var`` per complex sample, and the switching schedule assigning
interleaved sample slots to (antenna, tag) pairs.  The common-oscillator
downconversion cancels the carrier, so s_m(k) = 1 by default; the true
per-slot carrier phase can be re-enabled through the schedule for
sensitivity studies.

``tag_steering`` computes a log's summed path steering in one numpy pass
per tag and path; ``simulate_window`` takes one window's rows of it, makes
the window's draws and returns each detected tag's 2 x cols matrix, which
``simulate_log`` stacks into the log's IQ buffer.  numpy's vectorized
complex multiply may fuse multiply-adds and ``np.power`` may round unlike
``pow``, so the gain products are formed from real and imaginary parts and
the angle gain's ``10.0 ** x`` is taken per element: the bits are those of
a per-window scalar evaluation.  Snapshot windows for AoA estimation come
from a log, through ``preprocess.window_segments``.

``gesture_angles`` draws a gesture's two LoS angle series as parametric
synthetic shapes (ramps, a sinusoid, arcs); only their coarse
direction-of-motion character is modeled after the named gestures, and
mirrored gesture classes are exact sign-flips.  A recording is
``simulate_log`` on those angles, and ``gesture_sample`` reads its channel
series from the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import ArrayGeometry, steering_phase, unambiguous_fov
from .readerlog import ReaderLog


class OutOfFovError(ValueError):
    "Gesture angles leave the unambiguous field of view."


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
            raise ValueError("misdetect_prob must be a probability in [0, 1] or a pair of them")
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


def tag_steering(scene: SimScene, angles: list[np.ndarray]) -> np.ndarray:
    """Every window's summed tag steering, shape (T, n_tags, 2).

    Row [t, i] is sum_paths g * factor * amp * a(theta_path) for tag i at
    window t: ``angles[i][t]`` steers the LoS path, NLoS paths keep their
    scene angles, and factor is the angle modulation of ``angle_gain_db``
    and ``angle_phase_rad``.  Each tag and path is one numpy pass over the
    windows; the paths are added from zero in the scene's path order.
    """
    if len(angles) != len(scene.tags):
        raise ValueError("need one angle series per scene tag")
    thetas = np.array(angles, dtype=float)
    amp = math.sqrt(scene.tx_power) * scene.modulation_gain
    out = np.empty((thetas.shape[-1], len(scene.tags), 2), dtype=complex)
    for i, ((_, paths), theta) in enumerate(zip(scene.tags, thetas)):
        factor = np.ones(len(theta), dtype=complex)
        if scene.angle_gain_db != 0.0 or scene.angle_phase_rad != 0.0:
            r = np.minimum(np.abs(theta) / unambiguous_fov(scene.geometry), 1.0)
            mag = np.array([10.0 ** x for x in (-scene.angle_gain_db * r / 20.0).tolist()])
            factor = mag * np.exp(1j * scene.angle_phase_rad * r)
        path_angles = np.array([theta if path.is_los else np.full(len(theta), path.aoa)
                                for path in paths])
        phased = np.exp(1j * steering_phase(path_angles, scene.geometry))
        s0 = s1 = 0.0
        for path, e_path in zip(paths, phased):
            gain = complex(path.gain)
            g = np.empty(len(theta), dtype=complex)
            g.real = (gain.real * factor.real - gain.imag * factor.imag) * amp
            g.imag = (gain.real * factor.imag + gain.imag * factor.real) * amp
            s0 = s0 + g
            s1 = s1 + g * e_path
        out[:, i, 0] = s0
        out[:, i, 1] = s1
    return out


def simulate_window(scene: SimScene, schedule: SASSchedule, steering: np.ndarray,
                    rng_seed, window_idx: int = 0) -> list[tuple[int, np.ndarray]]:
    """Simulate one acquisition window; returns (tag index, matrix) per detected tag.

    ``steering`` holds the window's summed steering row per scene tag, row
    ``window_idx`` of ``tag_steering``.  A tag's index is its position in
    ``scene.tags``, and row m of its 2 x cols matrix holds antenna m's
    snapshots.  A tag misdetected on one antenna yields a matrix with that
    row NaN-filled; a tag misdetected on both antennas is omitted.

    Per tag the generator draws the two antennas' misdetection uniforms and
    then, with noise on, a (2, 2, cols) normal block: row m's noise is
    ``z[m, 0] + 1j * z[m, 1]``.
    """
    if not scene.tags:
        raise ValueError("scene has no tags")
    if len(scene.tags) > 2:
        raise ValueError("the 4-slot switching cycle serves at most two tags")
    if len(steering) != len(scene.tags):
        raise ValueError("need one steering row per scene tag")
    rng = np.random.default_rng(rng_seed)
    sigma = math.sqrt(scene.noise_var / 2.0)
    cols = schedule.cols
    p1, p2 = scene.misdetect_prob
    out = []
    for i, steer in enumerate(steering):
        u1, u2 = rng.random(2).tolist()
        signal = steer[:, None]
        if schedule.residual_phase:
            signal = signal * np.array([
                schedule.tx_sequence(window_idx, m, i + 1, scene.geometry.carrier_freq_hz)
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
        out.append((i, matrix))
    return out


# --- gesture trajectories ------------------------------------------------

GESTURE_CLASSES = ("SL", "SR", "LAC", "RAC", "2HLR", "2HLD", "2HIC", "2HOC")
_MIRRORS = {"SR": "SL", "RAC": "LAC", "2HLD": "2HLR", "2HOC": "2HIC"}
_FOV_MARGIN = 1e-9  # radians shifted angles keep inside the FOV, against rounding


def _ramp(start: float, end: float, u: np.ndarray) -> np.ndarray:
    "Smoothstep from ``start`` to ``end``."
    return start + (end - start) * (u * u * (3.0 - 2.0 * u))


def _arc(start: float, amp: float, u: np.ndarray) -> np.ndarray:
    "From ``start`` out to ``start + amp`` and back."
    return start + amp * 0.5 * (1.0 - np.cos(2.0 * np.pi * u))


def _class_angles(class_id: str, scale: float, off: float, u: np.ndarray) -> np.ndarray:
    "Both tags' angles of a base class at midpoints ``u``; each moves one-for-one with ``off``."
    deg = math.radians
    if class_id == "SL":
        return np.array([_ramp(off - scale * deg(12), off + scale * deg(12), u),
                         np.full_like(u, off - deg(6))])
    if class_id == "LAC":
        return np.array([(off - deg(4)) + (scale * deg(9)) * np.sin(2.0 * np.pi * u - math.pi / 2),
                         np.full_like(u, off - deg(8))])
    if class_id == "2HLR":
        return np.array([_ramp(off - deg(3), off - scale * deg(14), u),
                         _ramp(off + deg(3), off + scale * deg(14), u)])
    if class_id == "2HIC":
        return np.array([_arc(off - deg(11), scale * deg(9), u),
                         _arc(off + deg(11), -scale * deg(9), u)])
    raise ValueError(f"unknown gesture class {class_id!r}")


def gesture_angles(class_id: str, rng: np.random.Generator, windows: int,
                   fov: float) -> np.ndarray:
    """Both tags' LoS angles (radians) of one jittered gesture, shape (2, windows).

    The generator draws a scale in [0.9, 1.1) and then an offset of a
    standard normal number of degrees; the class's shapes are evaluated at
    the window midpoints.  SR, RAC, 2HLD and 2HOC are the negated angles of
    SL, LAC, 2HLR and 2HIC from the same draws, so mirrored pairs are exact
    sign-flips.  An offset that carries the angles past +-``fov`` is
    shifted back until they lie just inside, with no extra draw; angles
    that still leave the field of view raise OutOfFovError.
    """
    base = _MIRRORS.get(class_id, class_id)
    scale = rng.uniform(0.9, 1.1)
    off = math.radians(rng.normal(0.0, 1.0))
    u = (np.arange(windows) + 0.5) / windows
    angles = _class_angles(base, scale, off, u)
    if angles.max() > fov:
        angles = _class_angles(base, scale, off - (angles.max() - fov + _FOV_MARGIN), u)
    elif angles.min() < -fov:
        angles = _class_angles(base, scale, off + (-fov - angles.min() + _FOV_MARGIN), u)
    for i, reach in enumerate(np.abs(angles).max(axis=1).tolist()):
        if reach > fov:
            raise OutOfFovError(
                f"tag {i} trajectory reaches {math.degrees(reach):.1f} deg, "
                f"outside the +-{math.degrees(fov):.1f} deg field of view")
    return -angles if class_id in _MIRRORS else angles


@dataclass
class DatasetSpec:
    """Scene settings of a synthetic dataset: gesture recordings or a fixed-tag log.

    - ``classes``: gesture class ids (gesture datasets only).
    - ``samples_per_class``: recordings per class, a count.
    - ``windows``: acquisition windows per recording or fixed-tag log, a count.
    - ``snr_db``: LoS signal-to-noise ratio per complex sample, dB.
    - ``misdetect_prob``: lost-read probability per tag, window and antenna, or a pair.
    - ``nlos_paths``: scatterer paths per tag, a count; 0 is the anechoic scene.
    - ``nlos_gain_db``: each scatterer path's gain relative to the unit LoS gain, dB.
    - ``angle_gain_db``: gain drop at the field-of-view edge, dB (gesture scenes only).
    - ``angle_phase_rad``: phase swing at the field-of-view edge, rad (gesture scenes only).
    - ``tx_power``: reader transmit power, linear; the amplitude scales by its root.
    - ``modulation_gain``: tag reflection coefficient in (0, 1], linear.
    """

    classes: tuple[str, ...] = GESTURE_CLASSES
    samples_per_class: int = 40
    windows: int = 24
    snr_db: float = 10.0
    misdetect_prob: float | tuple[float, float] = 0.05
    nlos_paths: int = 2
    nlos_gain_db: float = -13.5
    angle_gain_db: float = 2.5
    angle_phase_rad: float = 1.2
    tx_power: float = 1.0
    modulation_gain: float = 1.0


# --- gesture-level simulation ---------------------------------------------

@dataclass
class GestureSample:
    """One labeled recording: per-tag RSS, phase and AoA series; truth stays on its log.

    The smoothed AoA channel is filled in by the tracking stage; RSS/phase
    are the antenna-1 window aggregates, NaN where the read was lost.
    """

    label: str
    tag_ids: list[str]
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
    window by window.  Every window gets one row per tag and antenna,
    undetected where the read was lost, stamped with the row's first sample
    slot; rows come in time order.  A row's RSS and phase are those of its
    mean IQ sample.  The log's IQ buffer is the stack of detected window
    matrices.  The angles become the truth sidecar.
    """
    tag_ids = scene.tag_ids()
    n_tags = len(tag_ids)
    base = list(rng_seed) if isinstance(rng_seed, (list, tuple)) else [rng_seed]
    cols, period = schedule.cols, schedule.sample_period_s
    steering = tag_steering(scene, angles)
    T = len(steering)
    # every detected window's matrix, stacked; found[t, i] is tag i's index, -1 for none
    iq = np.empty((T * n_tags, 2, cols), dtype=complex)
    found = np.full((T, n_tags), -1)
    n = 0
    for t, seed in enumerate(_window_seeds(base, T)):
        for i, matrix in simulate_window(scene, schedule, steering[t], seed, window_idx=t):
            iq[n] = matrix
            found[t, i] = n
            n += 1
    # rows in time order: per window, antenna 1 then 2, each over the tags; a row's
    # first snapshot is global slot 4k + 2(m-1) + (i-1) with k = t * cols
    antenna = np.tile(np.repeat([1, 2], n_tags), T)
    tag = np.tile(np.arange(n_tags), 2 * T)
    window_idx = np.repeat(np.arange(T), 2 * n_tags)
    offset = 2 * (antenna - 1) + np.minimum(tag + 1, 2) - 1
    j = found[window_idx, tag]
    mean_iq = np.full(len(j), np.nan, dtype=complex)
    mean_iq[j >= 0] = (iq[:n].sum(axis=2) / cols)[j[j >= 0], antenna[j >= 0] - 1]
    detected = ~np.isnan(mean_iq)   # a lost read: no window, or a NaN-filled row
    levels = [(20.0 * math.log10(abs(z)), math.atan2(z.imag, z.real))
              for z in mean_iq[detected].tolist()]
    rss, phase = np.full(len(j), np.nan), np.full(len(j), np.nan)
    if levels:
        rss[detected], phase[detected] = np.array(levels).T
    return ReaderLog(
        window_idx=window_idx, timestamp_s=(4 * cols * window_idx + offset) * period,
        tag=tag, antenna=antenna, rss_dbm=rss, phase_rad=phase, detected=detected,
        start=np.where(detected, (2 * j + antenna - 1) * 2 * cols, 0),
        count=np.where(detected, 2 * cols, 0), iq=iq[:n].view(float).reshape(-1),
        tag_ids=tag_ids, truth={tag: np.array(a, dtype=float) for tag, a in zip(tag_ids, angles)})


def gesture_sample(log: ReaderLog, label: str, dt_s: float) -> GestureSample:
    """Channel series of a recording from its reader log.

    RSS and phase are the antenna-1 window aggregates on the window grid
    starting at the log's first window index, NaN where the read was lost.
    """
    first = log.first_window
    T = 1 + int(log.window_idx.max()) - first
    rss, phase = {}, {}
    for i, tag in enumerate(log.tag_ids):
        rows = log.detected & (log.antenna == 1) & (log.tag == i)
        at = log.window_idx[rows] - first
        rss[tag], phase[tag] = np.full(T, np.nan), np.full(T, np.nan)
        rss[tag][at] = log.rss_dbm[rows]
        phase[tag][at] = log.phase_rad[rows]
    return GestureSample(label=label, tag_ids=list(log.tag_ids), rss=rss, phase=phase,
                         n_windows=T, dt_s=dt_s)


# --- canned scenes ---------------------------------------------------------

GAIN_JITTER_DB = 1.0     # gesture_scene's per-sample tag level draw, +- dB
PHASE_JITTER_RAD = 0.4   # gesture_scene's per-sample tag phase draw, +- rad


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


def lab_scene(geometry: ArrayGeometry, snr_db: float, rng: np.random.Generator,
              tag_ids: tuple[str, ...] = ("tag1",), n_paths: int = 2,
              nlos_gain_db: float = -13.5, **kwargs) -> SimScene:
    "Unit LoS gain, so SNR sets the noise floor, plus weak scatterer paths; 0 paths: anechoic."
    noise_var = 10.0 ** (-snr_db / 10.0)
    tags = [(t, los_paths() + nlos_paths(rng, geometry, n_paths, nlos_gain_db))
            for t in tag_ids]
    return SimScene(geometry, tags, noise_var=noise_var, **kwargs)


def gesture_scene(geometry: ArrayGeometry, spec: DatasetSpec,
                  rng: np.random.Generator) -> SimScene:
    """Lab-like scene of tags tag1 and tag2 with every setting of ``spec`` and per-sample draws.

    ``rng`` draws each tag's scatterer paths, then each tag's level and phase
    offset, applied to all its paths, so absolute RSS/phase are weak class
    cues; the angle-modulated texture remains.
    """
    scene = lab_scene(geometry, spec.snr_db, rng, ("tag1", "tag2"), spec.nlos_paths,
                      spec.nlos_gain_db, misdetect_prob=spec.misdetect_prob,
                      angle_gain_db=spec.angle_gain_db, angle_phase_rad=spec.angle_phase_rad,
                      tx_power=spec.tx_power, modulation_gain=spec.modulation_gain)
    tags = []
    for tag_id, paths in scene.tags:
        level = 10.0 ** (rng.uniform(-GAIN_JITTER_DB, GAIN_JITTER_DB) / 20.0)
        rot = np.exp(1j * rng.uniform(-PHASE_JITTER_RAD, PHASE_JITTER_RAD))
        tags.append((tag_id, [replace(p, gain=p.gain * level * rot) for p in paths]))
    scene.tags = tags
    return scene
