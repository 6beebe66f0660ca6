"""Synthetic two-antenna reader data.

Per acquisition window each tag's received row m is

    y_m(k) = sum_paths g * sqrt(P) * a_m(theta_path) * s_m(k) + noise(k)

with the round-trip steering vector a, circular Gaussian noise of variance
``noise_var`` per complex sample, and the switching schedule assigning
interleaved sample slots to (antenna, tag) pairs.  The common-oscillator
downconversion cancels the carrier, so s_m(k) = 1 by default; the true
per-slot carrier phase can be re-enabled through the schedule for
sensitivity studies.

``simulate_log`` builds a log in three stacked passes.  ``tag_steering``
computes every window's summed path steering in one numpy pass over all
tags and paths.  Window t draws from ``np.random.default_rng([*seed, t])``:
the generator states of all windows are derived at once from numpy's
seeding algorithm and set in turn on one generator, and ``simulate_window``
(one call per window) draws the window's misdetection uniforms and noise
normals into the log's preallocated stacks.  The noise, the signal, the
NaN fill of lost reads and the row means are then arrays over the log.
numpy's vectorized complex multiply may fuse multiply-adds and
``np.power`` may round unlike ``pow``, so the gain products are formed from
real and imaginary parts and the angle gain's ``10.0 ** x`` is taken per
element: the bits are those of a per-window scalar evaluation.  Snapshot
windows for AoA estimation come from a log, through
``preprocess.window_segments``.

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
    and ``angle_phase_rad``.  Every tag's paths are one numpy pass over the
    windows, and each tag's paths are added from zero in the scene's path
    order.  Tags with fewer paths are padded with zero gains: a zero term
    leaves a sum's bits as they are, as no sum is -0.0 once 0.0 is added.
    """
    if len(angles) != len(scene.tags):
        raise ValueError("need one angle series per scene tag")
    thetas = np.array(angles, dtype=float)
    amp = math.sqrt(scene.tx_power) * scene.modulation_gain
    factor = np.ones(thetas.shape, dtype=complex)
    if scene.angle_gain_db != 0.0 or scene.angle_phase_rad != 0.0:
        r = np.minimum(np.abs(thetas) / unambiguous_fov(scene.geometry), 1.0)
        mag = [10.0 ** x for x in (-scene.angle_gain_db * r / 20.0).ravel().tolist()]
        factor = np.reshape(mag, r.shape) * np.exp(1j * scene.angle_phase_rad * r)
    width = max(len(paths) for _, paths in scene.tags)
    gains = np.zeros((len(thetas), width, 1), dtype=complex)
    path_angles = np.zeros((len(thetas), width, thetas.shape[-1]))
    for i, (_, paths) in enumerate(scene.tags):
        for k, path in enumerate(paths):
            gains[i, k] = path.gain
            path_angles[i, k] = thetas[i] if path.is_los else path.aoa
    factor = factor[:, None, :]
    g = np.empty(path_angles.shape, dtype=complex)
    g.real = (gains.real * factor.real - gains.imag * factor.imag) * amp
    g.imag = (gains.real * factor.imag + gains.imag * factor.real) * amp
    phased = g * np.exp(1j * steering_phase(path_angles, scene.geometry))
    out = np.empty((thetas.shape[-1], len(thetas), 2), dtype=complex)
    s0 = s1 = 0.0
    for k in range(width):
        s0 = s0 + g[:, k]
        s1 = s1 + phased[:, k]
    out[..., 0] = s0.T
    out[..., 1] = s1.T
    return out


def simulate_window(rng: np.random.Generator, u: np.ndarray, z: np.ndarray | None) -> None:
    """Make one acquisition window's draws into its rows of ``simulate_log``'s stacks.

    ``u`` is the window's (n_tags, 2) misdetection block and ``z`` its
    (n_tags, 2, 2, cols) noise block, or None with noise off.  Per tag, in
    scene order, the generator draws the two antennas' uniforms into
    ``u[i]`` and then, with noise on, standard normals into ``z[i]``:
    antenna m's noise is sigma * (z[i, m, 0] + 1j * z[i, m, 1]).
    """
    for i in range(len(u)):
        rng.random(out=u[i])
        if z is not None:
            rng.standard_normal(out=z[i])


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


# SeedSequence's mixing constants and PCG64's multiplier (numpy bit_generator.pyx, pcg64.h)
_M32, _M128 = 2 ** 32 - 1, 2 ** 128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_ASSEMBLY_CHUNK = 256   # (t, i) blocks simulate_log turns from draws into matrices at a time
_window_rng = None   # the generator whose state simulate_log sets per window, made on first use


def _hash_constants(h: int, mult: int):
    "SeedSequence's running hash constant: h, h * mult, h * mult**2, ... mod 2**32."
    while True:
        yield h
        h = h * mult & _M32


def _hashmix(value, h):
    "SeedSequence's hashmix of uint32 ``value`` with hash constant ``h`` (ints or uint32 arrays)."
    value = (value ^ h) * (h * _MULT_A & _M32) & _M32
    return value ^ value >> 16


def _mix(x, y):
    "SeedSequence's mix of two uint32 values (ints or uint32 arrays)."
    r = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
    return r ^ r >> 16


def _seed_words(seed: list) -> list[int]:
    """SeedSequence's uint32 entropy words of a list of ints: each int's 32-bit words, low first.

    Raises as SeedSequence does on a negative or non-integer seed.
    """
    words = []
    for v in seed:
        if not isinstance(v, (int, np.integer)):
            raise TypeError("seed must be integer")
        v = int(v)
        if v < 0:
            raise ValueError("expected non-negative integer")
        words.append(v & _M32)
        while v > _M32:
            v >>= 32
            words.append(v & _M32)
    return words


def _window_states(base: list, windows: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``np.random.default_rng([*base, t])`` for t < ``windows``.

    SeedSequence (numpy's ``bit_generator.pyx``) hashes the seed's uint32
    words into a pool of four, mixes the pool, and generates four 64-bit
    words from it; PCG64 seeds from them as ``pcg_setseq_128_srandom_r``
    does (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
    Statistically Good Algorithms for Random Number Generation", 2014):
    ``inc = 2 * initseq + 1`` and ``state = ((inc + initstate) * M + inc)``
    mod 2**128.  The words the rows share are mixed once as ints; from the
    window word on, each value is a uint32 column over the rows.
    """
    words = [*_seed_words(base), np.arange(windows, dtype=np.uint32)]
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(words[i] if i < len(words) else 0, next(consts)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    # every further word is mixed into the four pool words with four consecutive constants
    pool = np.stack(np.broadcast_arrays(*pool)).astype(np.uint32).reshape(4, -1)
    for word in words[4:]:
        pool = _mix(pool, _hashmix(word, np.array([[next(consts)] for _ in range(4)], np.uint32)))
    # generate_state(4, np.uint64): eight uint32 words cycled from the pool, paired low first
    consts = _hash_constants(_INIT_B, _MULT_B)
    hash_b = np.array([[next(consts)] for _ in range(9)], dtype=np.uint32)
    out = np.concatenate([pool, pool]) ^ hash_b[:8]
    out *= hash_b[1:]
    out ^= out >> 16
    states = []
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(out.T, "<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128, inc))
    return states


def _window_generators(base: list, windows: int):
    """Yield one generator per window t < ``windows``, in the state ``default_rng([*base, t])`` has.

    It is the same module-level generator each time, its state set anew, so
    two threads must not simulate at once; it is made on first use, as
    numpy.random loads lazily.
    """
    global _window_rng
    if _window_rng is None:
        _window_rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = _window_rng.bit_generator
    for state, inc in _window_states(base, windows):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield _window_rng


def simulate_log(scene: SimScene, schedule: SASSchedule, angles: list[np.ndarray],
                 rng_seed) -> ReaderLog:
    """Reader log of one recording; ``angles[i]`` is tag i's LoS angle per window.

    Window t draws from the generator ``np.random.default_rng([*rng_seed,
    t])`` (see ``simulate_window``), so logs are reproducible window by
    window.  Every window gets one row per tag and antenna, undetected where
    the read was lost, stamped with the row's first sample slot; rows come
    in time order.  A row's RSS and phase are those of its mean IQ sample.
    The log's IQ buffer is the stack of detected window matrices in (window,
    tag) order; a tag lost on one antenna keeps that row NaN-filled there.
    The angles become the truth sidecar.
    """
    tag_ids = scene.tag_ids()
    n_tags = len(tag_ids)
    if not n_tags:
        raise ValueError("scene has no tags")
    if n_tags > 2:
        raise ValueError("the 4-slot switching cycle serves at most two tags")
    base = list(rng_seed) if isinstance(rng_seed, (list, tuple)) else [rng_seed]
    cols, period = schedule.cols, schedule.sample_period_s
    steering = tag_steering(scene, angles)
    T = len(steering)
    sigma = math.sqrt(scene.noise_var / 2.0)
    u = np.empty((T, n_tags, 2))
    z = np.empty((T, n_tags, 2, 2, cols)) if sigma > 0 else None
    for t, rng in enumerate(_window_generators(base, T)):
        simulate_window(rng, u[t], None if z is None else z[t])
    missing = u < scene.misdetect_prob   # antenna m's read lost where u[..., m] < p_m
    keep = ~missing.all(axis=2)   # a tag lost on both antennas has no matrix
    found = np.full((T, n_tags), -1)   # tag i's index into iq at window t, -1 for none
    found[keep] = np.arange(int(keep.sum()))
    signal = steering[keep][..., None]
    if schedule.residual_phase:
        f = scene.geometry.carrier_freq_hz
        signal = signal * np.array([[schedule.tx_sequence(t, m, i + 1, f) for m in (1, 2)]
                                    for t, i in zip(*np.nonzero(keep))]).reshape(-1, 2, cols)
    if z is None:
        iq = np.broadcast_to(signal, (len(signal), 2, cols)) + 0.0  # noise-free, a new array
    else:
        # the kept matrices take the memory of the draws, a chunk of (t, i) blocks at a
        # time, each chunk's draws copied out before the matrices written back overtake
        # them; numpy's normal(scale=sigma) is 0.0 + sigma * x, never -0.0, so row m is
        # exactly the complex number with parts z[m, 0] and z[m, 1]
        blocks, kept = z.reshape(-1, 2, 2, cols), keep.reshape(-1)
        iq = z.reshape(-1).view(complex).reshape(-1, 2, cols)
        n = 0
        for a in range(0, len(blocks), _ASSEMBLY_CHUNK):
            noise = blocks[a:a + _ASSEMBLY_CHUNK][kept[a:a + _ASSEMBLY_CHUNK]]
            noise *= sigma
            noise += 0.0
            iq[n:n + len(noise)].real = noise[:, :, 0]
            iq[n:n + len(noise)].imag = noise[:, :, 1]
            n += len(noise)
        iq = iq[:n]
        iq += signal
    iq[missing[keep]] = np.nan
    # rows in time order: per window, antenna 1 then 2, each over the tags; a row's
    # first snapshot is global slot 4k + 2(m-1) + (i-1) with k = t * cols
    window_idx, antenna, tag = np.indices((T, 2, n_tags)).reshape(3, -1)
    antenna += 1
    j = found[window_idx, tag]
    mean_iq = np.full(len(j), np.nan, dtype=complex)
    mean_iq[j >= 0] = (iq.sum(axis=2) / cols)[j[j >= 0], antenna[j >= 0] - 1]
    detected = ~np.isnan(mean_iq)   # a lost read: no matrix, or a NaN-filled row
    mean_iq = mean_iq[detected]
    rss, phase = np.full(len(j), np.nan), np.full(len(j), np.nan)
    # np.hypot is the C hypot that Python's complex abs takes
    rss[detected] = [20.0 * math.log10(a) for a in np.hypot(mean_iq.real, mean_iq.imag).tolist()]
    phase[detected] = list(map(math.atan2, mean_iq.imag.tolist(), mean_iq.real.tolist()))
    return ReaderLog(
        window_idx=window_idx, timestamp_s=(4 * cols * window_idx + 2 * antenna - 2 + tag) * period,
        tag=tag, antenna=antenna, rss_dbm=rss, phase_rad=phase, detected=detected,
        start=np.where(detected, (2 * j + antenna - 1) * 2 * cols, 0),
        count=np.where(detected, 2 * cols, 0), iq=iq.view(float).reshape(-1),
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
