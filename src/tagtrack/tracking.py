"""Constant-rate Kalman filtering and RTS smoothing of per-window AoA measurements.

State is [angle, angular rate]; dynamics x_t = F x_{t-1} + w with
F = [[1, dt], [0, 1]], measurements z_t = angle + v.  Windows without a
measurement skip the update step (posterior := prior), and the smoother runs
the standard backward recursion over the stored forward sequences.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import ArrayGeometry
from .music import AoAMeasurement, estimate_aoa, search_range
from .preprocess import IQWindow, _snapshot_covariance, windows_by_tag
from .readerlog import ReaderLog
from .simulate import SASSchedule

logger = logging.getLogger(__name__)


@dataclass
class KalmanConfig:
    """Tracker tuning.

    Defaults: process noise stds 0.01 rad / 0.1 rad/s, measurement std
    0.035 rad (about 2 deg, the order of lab MUSIC scatter).  dt filled from
    the measurement grid when None.  The start state is (first valid
    measurement, 0) with covariance ``p0``.
    """

    dt: float | None = None
    sigma_theta: float = 0.01
    sigma_omega: float = 0.1
    sigma_v: float = 0.035
    p0: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.sigma_theta < 0 or self.sigma_omega < 0:
            raise ValueError("process noise stds must be >= 0")
        if self.sigma_v <= 0:
            raise ValueError("sigma_v must be > 0")


def _flat(a: np.ndarray) -> memoryview:
    "Flat float view of a C-contiguous array: element access without numpy scalars."
    return memoryview(a.reshape(-1))


@dataclass
class AoATrack:
    """Measurement sequence with filtered and smoothed state histories."""

    z: np.ndarray                   # (T,), NaN where missing
    valid: np.ndarray               # (T,) bool
    priors: np.ndarray              # (T, 2)
    prior_covs: np.ndarray          # (T, 2, 2)
    posts: np.ndarray               # (T, 2)
    post_covs: np.ndarray           # (T, 2, 2)
    smoothed: np.ndarray | None = None
    smoothed_covs: np.ndarray | None = None
    first_window: int = 0           # reader-log window index of slot 0
    midpoint_s: np.ndarray | None = None
    dt: float = 0.0

    @property
    def n_windows(self) -> int:
        return self.z.size

    def filtered_series(self) -> np.ndarray:
        return self.posts[:, 0]

    def smoothed_series(self) -> np.ndarray:
        if self.smoothed is None:
            raise ValueError("run rts_smooth first")
        return self.smoothed[:, 0]


def filter_sequence(z: np.ndarray, cfg: KalmanConfig) -> AoATrack:
    """Forward Kalman pass over a measurement sequence with gaps.

    NaN entries of ``z`` skip the update: the posterior and its covariance
    are the prior, unchanged.  The filter's dt (1.0 when ``cfg.dt`` is None)
    is stored on the track for ``rts_smooth``.  The
    predict (F x, sym(F P F^T + Q)) and update steps are written out on
    Python floats because per-step 2x2 array operations cost more than the
    arithmetic.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("z must be a non-empty 1-D sequence")
    valid = np.isfinite(z)
    T = z.size
    idx = np.nonzero(valid)[0]
    x = float(z[idx[0]]) if idx.size else 0.0
    v = 0.0
    dt = 1.0 if cfg.dt is None else cfg.dt
    r = cfg.sigma_v ** 2
    q0, q1 = cfg.sigma_theta ** 2, cfg.sigma_omega ** 2
    (p00, p01), (p10, p11) = np.asarray(cfg.p0, float).tolist()
    priors, posts = np.empty((T, 2)), np.empty((T, 2))
    prior_covs, post_covs = np.empty((T, 2, 2)), np.empty((T, 2, 2))
    pr, pc, po, poc = map(_flat, (priors, prior_covs, posts, post_covs))
    for t, (zt, ok) in enumerate(zip(z.tolist(), valid.tolist())):
        # predict: F x, sym(F P F^T + Q)
        x = x + dt * v
        p00 = p00 + dt * p10 + (p01 + dt * p11) * dt + q0
        p01 = p10 = 0.5 * ((p01 + dt * p11) + (p10 + p11 * dt))
        p11 = p11 + q1
        i, j = 2 * t, 4 * t
        pr[i], pr[i + 1] = x, v
        pc[j], pc[j + 1], pc[j + 2], pc[j + 3] = p00, p01, p10, p11
        if ok:
            # update: K = P H / s, x + K (z - H x), sym((I - K H^T) P)
            s = p00 + r
            if s <= 0:
                raise FloatingPointError("innovation variance is not positive")
            g0, g1 = p00 / s, p10 / s
            innov = zt - x
            x, v = x + g0 * innov, v + g1 * innov
            p00, p01, p10, p11 = ((1.0 - g0) * p00, (1.0 - g0) * p01,
                                  -g1 * p00 + p10, -g1 * p01 + p11)
            p01 = p10 = 0.5 * (p01 + p10)
        po[i], po[i + 1] = x, v
        poc[j], poc[j + 1], poc[j + 2], poc[j + 3] = p00, p01, p10, p11
    return AoATrack(z=z, valid=valid, priors=priors, prior_covs=prior_covs,
                    posts=posts, post_covs=post_covs, dt=dt)


def rts_smooth(track: AoATrack) -> AoATrack:
    """Backward smoothing pass; fills the smoothed fields of the track.

    The transition uses the filter's own ``track.dt``.  A singular
    next-step prior covariance gets 1e-12 diagonal loading (logged) before
    inversion.  Like ``filter_sequence`` it runs the 2x2 algebra on Python
    floats, with the closed-form 2x2 inverse.
    """
    T = track.n_windows
    dt = track.dt
    xs, ps = track.posts.copy(), track.post_covs.copy()
    pr, pc, po, poc = map(_flat, (track.priors, track.prior_covs, track.posts, track.post_covs))
    xo, so = _flat(xs), _flat(ps)
    i, j = 2 * (T - 1), 4 * (T - 1)
    x, v = po[i], po[i + 1]
    s00, s01, s10, s11 = poc[j], poc[j + 1], poc[j + 2], poc[j + 3]
    for t in range(T - 2, -1, -1):
        i, j = 2 * t, 4 * t
        a00, a01, a10, a11 = pc[j + 4], pc[j + 5], pc[j + 6], pc[j + 7]  # P_{t+1|t}
        b00, b11 = a00, a11
        det = a00 * a11 - a01 * a10
        if not math.isfinite(det) or abs(det) < 1e-300:
            logger.warning("singular prior covariance at window %d; loading diagonal", t + 1)
            b00, b11 = a00 + 1e-12, a11 + 1e-12
            det = b00 * b11 - a01 * a10
        i00, i01, i10, i11 = b11 / det, -a01 / det, -a10 / det, b00 / det
        # G = P_t F^T P_{t+1|t}^-1
        c00, c01, c10, c11 = poc[j], poc[j + 1], poc[j + 2], poc[j + 3]
        f00, f10 = c00 + c01 * dt, c10 + c11 * dt
        g00, g01 = f00 * i00 + c01 * i10, f00 * i01 + c01 * i11
        g10, g11 = f10 * i00 + c11 * i10, f10 * i01 + c11 * i11
        dx, dv = x - pr[i + 2], v - pr[i + 3]
        x, v = po[i] + (g00 * dx + g01 * dv), po[i + 1] + (g10 * dx + g11 * dv)
        # P_t + G (P^s_{t+1} - P_{t+1|t}) G^T, symmetrized
        m00, m01, m10, m11 = s00 - a00, s01 - a01, s10 - a10, s11 - a11
        h00, h01 = g00 * m00 + g01 * m10, g00 * m01 + g01 * m11
        h10, h11 = g10 * m00 + g11 * m10, g10 * m01 + g11 * m11
        s00 = c00 + (h00 * g00 + h01 * g01)
        s11 = c11 + (h10 * g10 + h11 * g11)
        s01 = s10 = 0.5 * ((c01 + (h00 * g10 + h01 * g11)) + (c10 + (h10 * g00 + h11 * g01)))
        xo[i], xo[i + 1] = x, v
        so[j], so[j + 1], so[j + 2], so[j + 3] = s00, s01, s10, s11
    track.smoothed = xs
    track.smoothed_covs = ps
    return track


def measure_windows(windows: dict[str, list[IQWindow]], geometry: ArrayGeometry,
                    schedule: SASSchedule | None = None,
                    search: tuple[float, float] | None = None
                    ) -> dict[str, list[AoAMeasurement]]:
    """Per-window AoA estimates of every tag, in sorted tag order.

    ``search`` is checked once by ``music.search_range`` (None for its
    default range), also when there are no windows.  With
    ``schedule.residual_phase`` on, a window of acquisition size first has
    the reader's transmit sequence divided out of its matrix, and is
    estimated from the covariance of the quotient.  That sequence belongs to
    the window's ``window_idx`` and to the tag's slot, its position among
    the sorted tag ids.
    """
    search = search_range(geometry, search)
    residual = schedule is not None and schedule.residual_phase
    out = {}
    for slot, tag in enumerate(sorted(windows), start=1):
        tag_windows = windows[tag]
        if residual:
            tag_windows = [_divide_tx(w, schedule, min(slot, 2), geometry.carrier_freq_hz)
                           if w.matrix.shape[1] == schedule.cols else w for w in tag_windows]
        out[tag] = [estimate_aoa(w, geometry, search) for w in tag_windows]
    return out


def _divide_tx(window: IQWindow, schedule: SASSchedule, tag_slot: int,
               carrier_freq_hz: float) -> IQWindow:
    """The window with its transmit sequence divided out, and the quotient's covariance.

    A complex quotient of an infinite value by an exactly real sequence
    value makes a NaN part with numpy's invalid-value warning; the
    covariance is then not finite and ``estimate_aoa`` raises, so the
    warning is held back.
    """
    tx = np.vstack([schedule.tx_sequence(window.window_idx, m, tag_slot, carrier_freq_hz)
                    for m in (1, 2)])
    with np.errstate(invalid="ignore"):
        y = window.matrix / tx
    return replace(window, matrix=y, covariance=_snapshot_covariance(y))


def track_aoa(log: ReaderLog, geometry: ArrayGeometry,
              music_search: tuple[float, float] | None = None,
              kalman: KalmanConfig | None = None,
              schedule: SASSchedule | None = None) -> dict[str, AoATrack]:
    """Full per-tag chain: window, measure, filter, smooth.

    Slot t of a tag's track is acquisition window ``first_window + t``, so
    pruned or misdetected windows surface as missing measurements.  dt
    defaults to the time between the first and last window over their index
    span (1.0 for a single window), and ``schedule`` enables the
    residual-phase correction of ``measure_windows``.  Returns the smoothed
    track per tag; tags with no usable window are omitted.
    """
    windows = windows_by_tag(log)
    out: dict[str, AoATrack] = {}
    for tag, meas in measure_windows(windows, geometry, schedule, music_search).items():
        first, last = windows[tag][0], windows[tag][-1]
        span = last.window_idx - first.window_idx
        z = np.full(span + 1, np.nan)
        for m in meas:
            z[m.window_idx - first.window_idx] = m.theta_hat
        dt = (last.midpoint_time_s - first.midpoint_time_s) / span if span else 0.0
        base = kalman or KalmanConfig()
        cfg = replace(base, dt=base.dt if base.dt is not None else (dt if dt > 0 else 1.0))
        track = rts_smooth(filter_sequence(z, cfg))
        track.first_window = first.window_idx
        track.midpoint_s = first.midpoint_time_s + np.arange(span + 1) * dt
        out[tag] = track
    return out
