"""Per-window subspace AoA estimation for the two-antenna reader.

With two elements the MUSIC pseudospectrum 1 / |a(theta)^H u_n|^2, u_n the
noise eigenvector of the window's 2x2 snapshot covariance R, peaks where the
steering phase equals arg R[1, 0] (root-MUSIC for M = 2, the same answer as
phase interferometry).  The angle is therefore computed from arg R[1, 0]
alone.  The closed-form eigendecomposition and the pseudospectrum are
evaluated only where they are needed: to choose an endpoint when the angle
falls outside the search range, and for the spectrum peak of a measurement
(``spectrum_peaks``), which only the ``peak`` column of ``measurements.csv``
reads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, steering_phase, unambiguous_fov
from .preprocess import IQWindow

SPECTRUM_FLOOR = 1e-15
"Denominator clamp; exact orthogonality would otherwise divide by zero."

@dataclass
class AoAMeasurement:
    """One window's AoA estimate.

    ``covariance`` is the 2x2 snapshot covariance the angle came from, kept
    for ``spectrum_peaks``: the window's own ``covariance``, a view of its
    stack's, or with residual phase on the covariance ``measure_windows``
    took of the divided matrix.  ``valid`` is always True, and not a field: a
    window that yields no angle raises in ``estimate_aoa`` instead.
    """

    theta_hat: float
    window_idx: int
    covariance: np.ndarray
    valid = True


def _eig2_stack(r: np.ndarray):
    """Closed-form eigenpairs of a (W, 2, 2) stack of Hermitian matrices.

    Returns lam_s, lam_n (W,) and u_s, u_n (W, 2).  Each matrix gets the
    bits of a scalar evaluation: moduli are C ``hypot`` of the parts, as
    Python's complex ``abs`` is, ``disc`` takes ``math.hypot`` per matrix,
    and the signal eigenvector's norm takes the two BLAS dot products
    ``np.linalg.norm`` takes, through one matmul over the stack (the BLAS may
    fuse their multiply-adds, which elementwise numpy cannot reproduce).
    """
    r00, r01, r10, r11 = r[:, 0, 0], r[:, 0, 1], r[:, 1, 0], r[:, 1, 1]
    mods = [np.hypot(z.real, z.imag) for z in (r00, r01, r10, r11)]
    scale = np.maximum.reduce(mods)
    scale[scale == 0.0] = 1.0
    skew = r01 - r10.conj()
    if np.any(np.hypot(skew.real, skew.imag) > 1e-9 * scale) or \
            np.any(np.maximum(np.abs(r00.imag), np.abs(r11.imag)) > 1e-9 * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    a, c, b = r00.real, r11.real, r01
    disc = np.array([math.hypot(x, y)
                     for x, y in zip((a - c).tolist(), (2.0 * mods[1]).tolist())])
    lam_s = 0.5 * (a + c + disc)
    lam_n = 0.5 * (a + c - disc)
    x = np.stack([b, (lam_s - a).astype(complex)], axis=1)
    norm2 = x.real[:, None, :] @ x.real[:, :, None] + x.imag[:, None, :] @ x.imag[:, :, None]
    signal = mods[1] > 1e-15 * scale
    first = a >= c
    with np.errstate(divide="ignore", invalid="ignore"):  # the matrices without signal
        # numpy divides a complex by a real norm as a product with 1 / norm
        inv = 1.0 / np.sqrt(norm2[:, 0, 0])
        u0r = np.where(signal, b.real * inv, first.astype(float))
        u0i = np.where(signal, b.imag * inv, 0.0)
        u1r = np.where(signal, (lam_s - a) * inv, (~first).astype(float))
    u = np.zeros((r.shape[0], 2, 2), dtype=complex)   # [u_s, u_n] per matrix
    u[:, 0, 0].real, u[:, 0, 0].imag, u[:, 0, 1].real = u0r, u0i, u1r
    u[:, 1, 0].real, u[:, 1, 1].real, u[:, 1, 1].imag = -u1r, u0r, -u0i
    return lam_s, lam_n, u[:, 0], u[:, 1]


def music_spectrum(theta, noise_vec: np.ndarray, geometry: ArrayGeometry):
    """Pseudospectrum 1 / (a^H u_n u_n^H a); accepts scalar or array theta.

    ``noise_vec`` is one noise vector (2,) or one per angle (..., 2).  The
    complex product is formed from real parts, as numpy's scalar multiply
    forms it, and the modulus squared with C pow, so the bits are those of a
    scalar evaluation whatever the shapes.  The denominator is clamped at
    SPECTRUM_FLOOR, so a noiseless window produces a finite, very large peak
    at the true angle.
    """
    e = np.exp(-1j * steering_phase(np.asarray(theta, dtype=float), geometry))
    u0, u1 = noise_vec[..., 0], noise_vec[..., 1]
    proj = np.empty(np.broadcast(e, u1).shape, dtype=complex)
    proj.real = u0.real + (e.real * u1.real - e.imag * u1.imag)
    proj.imag = u0.imag + (e.real * u1.imag + e.imag * u1.real)
    mod = np.abs(proj)
    # numpy's scalar ``** 2`` is C pow, as Python's is; the array square rounds otherwise
    power = np.array([m ** 2 for m in mod.ravel().tolist()]).reshape(mod.shape)
    out = 1.0 / np.maximum(power, SPECTRUM_FLOOR)
    return float(out) if np.isscalar(theta) else out


def search_range(geometry: ArrayGeometry,
                 search: tuple[float, float] | None = None) -> tuple[float, float]:
    """The checked AoA search range (lo, hi) in radians.

    None gives the default range, +-18 deg clamped into the unambiguous
    field of view.  A given range must satisfy lo < hi and lie within the
    field of view, with 1e-12 rad of slack for rounding; otherwise
    ValueError.
    """
    fov = unambiguous_fov(geometry)
    if search is None:
        half = min(math.radians(18.0), fov)
        return (-half, half)
    lo, hi = search
    if not lo < hi:
        raise ValueError("search range must satisfy theta_min < theta_max")
    if abs(lo) > fov + 1e-12 or abs(hi) > fov + 1e-12:
        raise ValueError("search range must lie within the unambiguous field of view")
    return (lo, hi)


def estimate_aoa(window: IQWindow, geometry: ArrayGeometry,
                 search: tuple[float, float]) -> AoAMeasurement:
    """Closed-form peak of the pseudospectrum within the search range.

    The angle comes from the window's ``covariance`` R; ``search`` is a
    range ``search_range`` has checked.  The unconstrained peak is
    theta = asin(arg R[1, 0] / (4*pi*d/lambda)), so a window whose angle
    lies in ``search`` needs no eigendecomposition.  The pseudospectrum falls
    off with the circular distance of the steering phase from arg R[1, 0],
    so when that angle lies outside ``search`` the maximum over the range
    sits at one of its endpoints -- not necessarily the nearer one in angle,
    since the phase wraps -- and the endpoint with the larger pseudospectrum
    is returned.

    Every snapshot of a row enters its R[i, i], so a window holding a NaN or
    infinite IQ value (such as a NaN-filled lost row), or a finite one whose
    square overflows, has a non-finite R[0, 0], R[1, 1] or R[1, 0] and raises
    ValueError naming its tag and window.
    """
    lo, hi = search
    cov = window.covariance
    r10 = cov[1, 0]
    if not (cmath.isfinite(r10) and cmath.isfinite(cov[0, 0]) and cmath.isfinite(cov[1, 1])):
        raise ValueError(f"tag {window.tag_id!r} window {window.window_idx}: snapshot "
                         "covariance is not finite (a NaN, infinite or overflowing IQ value)")
    sin_theta = cmath.phase(r10) / \
        (4.0 * math.pi * geometry.element_spacing_m / geometry.wavelength_m)
    # spacings below lambda/4 can put the phase past sin = +-1: no angle, NaN
    theta = math.asin(sin_theta) if abs(sin_theta) <= 1.0 else math.nan
    if not lo <= theta <= hi:
        u_n = _eig2_stack(cov[None])[3][0]
        theta = (lo, hi)[int(np.argmax(music_spectrum(np.array([lo, hi]), u_n, geometry)))]
    return AoAMeasurement(float(theta), window.window_idx, cov)


def spectrum_peaks(measurements: list[AoAMeasurement], geometry: ArrayGeometry) -> np.ndarray:
    """Pseudospectrum of each measurement's window at its angle.

    One eigendecomposition and one spectrum evaluation over all windows,
    with the bits of ``music_spectrum(m.theta_hat,
    _eig2_stack(m.covariance[None])[3][0], geometry)`` per window.
    """
    if not measurements:
        return np.empty(0)
    u_n = _eig2_stack(np.array([m.covariance for m in measurements]))[3]
    return music_spectrum(np.array([m.theta_hat for m in measurements]), u_n, geometry)
