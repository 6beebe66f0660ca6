"""Per-window subspace AoA estimation for the two-antenna reader.

With two elements the MUSIC pseudospectrum 1 / |a(theta)^H u_n|^2, u_n the
noise eigenvector of the window's 2x2 snapshot covariance R, peaks where the
steering phase equals arg R[1, 0] (root-MUSIC for M = 2, the same answer as
phase interferometry).  The angle is therefore computed from arg R[1, 0]
alone.  The closed-form eigendecomposition and the pseudospectrum are
evaluated only where they are needed: to choose an endpoint when the angle
falls outside the search range, and for the spectrum peak of a measurement
(``spectrum_peak``), which only the ``peak`` column of ``measurements.csv``
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
class Eig2:
    """Ordered eigenpairs of a 2x2 Hermitian matrix: lam_s >= lam_n."""

    lam_s: float
    lam_n: float
    u_s: np.ndarray
    u_n: np.ndarray


@dataclass
class AoAMeasurement:
    """One window's AoA estimate; invalid when the window was incomplete.

    ``covariance`` is the window's 2x2 snapshot covariance (None when
    invalid), kept for ``spectrum_peak``.
    """

    theta_hat: float
    window_idx: int
    valid: bool
    covariance: np.ndarray | None


def sample_covariance(window: IQWindow) -> np.ndarray:
    "Snapshot covariance Y Y^H / n (2x2) of a complete window (n >= 2 snapshots)."
    if not window.complete:
        raise ValueError("sample covariance needs both antenna rows; "
                         "incomplete windows become missing measurements")
    y = window.matrix
    n = y.shape[1]
    if n < 2:
        raise ValueError("need at least 2 snapshots")
    return y @ y.conj().T / n


def eig2_hermitian(r: np.ndarray) -> Eig2:
    """Closed-form eigendecomposition of a Hermitian 2x2 matrix.

    The noise eigenvector is built as the exact orthogonal complement of the
    signal eigenvector, so u_s^H u_n = 0 to machine precision.  The work is
    on Python scalars except the signal eigenvector's norm, which takes the
    two BLAS dot products ``np.linalg.norm`` takes (the BLAS may fuse their
    multiply-adds, which Python floats cannot reproduce).
    """
    (r00, r01), (r10, r11) = r.tolist()
    scale = max(abs(r00), abs(r01), abs(r10), abs(r11)) or 1.0
    if abs(r01 - r10.conjugate()) > 1e-9 * scale or \
            max(abs(r00.imag), abs(r11.imag)) > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    a = r00.real
    c = r11.real
    b = r01
    disc = math.hypot(a - c, 2.0 * abs(b))
    lam_s = 0.5 * (a + c + disc)
    lam_n = 0.5 * (a + c - disc)
    if abs(b) > 1e-15 * scale:
        x = np.array([b, lam_s - a])
        # numpy divides a complex by a real norm as a product with 1 / norm
        inv = 1.0 / math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
        u0, u1 = complex(b.real * inv, b.imag * inv), complex((lam_s - a) * inv, 0.0)
    else:
        u0, u1 = (1.0 + 0.0j, 0.0j) if a >= c else (0.0j, 1.0 + 0.0j)
    return Eig2(lam_s=lam_s, lam_n=lam_n, u_s=np.array([u0, u1]),
                u_n=np.array([-u1.conjugate(), u0.conjugate()]))


def music_spectrum(theta, noise_vec: np.ndarray, geometry: ArrayGeometry):
    """Pseudospectrum 1 / (a^H u_n u_n^H a); accepts scalar or array theta.

    The denominator is clamped at SPECTRUM_FLOOR, so a noiseless window
    produces a finite, very large peak at the true angle.
    """
    phase = steering_phase(np.asarray(theta, dtype=float), geometry)
    proj = noise_vec[0] + np.exp(-1j * phase) * noise_vec[1]
    denom = np.maximum(np.abs(proj) ** 2, SPECTRUM_FLOOR)
    out = 1.0 / denom
    return float(out) if np.isscalar(theta) else out


def default_search_range(geometry: ArrayGeometry) -> tuple[float, float]:
    "Symmetric search range: +-18 deg, clamped into the unambiguous FOV."
    half = min(math.radians(18.0), unambiguous_fov(geometry))
    return (-half, half)


def estimate_aoa(window: IQWindow, geometry: ArrayGeometry,
                 search: tuple[float, float] | None = None,
                 tx_sequence: np.ndarray | None = None) -> AoAMeasurement:
    """Closed-form peak of the pseudospectrum within the search range.

    The unconstrained peak is theta = asin(arg R[1, 0] / (4*pi*d/lambda)),
    so a window whose angle lies in ``search`` needs no eigendecomposition.
    The pseudospectrum falls off with the circular distance of the steering
    phase from arg R[1, 0], so when that angle lies outside ``search`` the
    maximum over the range sits at one of its endpoints -- not necessarily
    the nearer one in angle, since the phase wraps -- and the endpoint with
    the larger pseudospectrum is returned.

    ``tx_sequence`` (2 x n) divides out a known non-constant transmit
    sequence before the covariance, the reader knowing its own signal.
    Incomplete windows return an invalid measurement rather than raising.
    """
    if search is None:
        search = default_search_range(geometry)
    lo, hi = search
    fov = unambiguous_fov(geometry) + 1e-12
    if not lo < hi:
        raise ValueError("search range must satisfy theta_min < theta_max")
    if abs(lo) > fov or abs(hi) > fov:
        raise ValueError("search range must lie within the unambiguous field of view")
    if not window.complete:
        return AoAMeasurement(math.nan, window.window_idx, False, None)
    w = window
    if tx_sequence is not None:
        w = IQWindow(window.tag_id, window.window_idx, window.matrix / tx_sequence,
                     window.midpoint_time_s, window.complete)
    cov = sample_covariance(w)
    sin_theta = cmath.phase(cov[1, 0]) / \
        (4.0 * math.pi * geometry.element_spacing_m / geometry.wavelength_m)
    # spacings below lambda/4 can put the phase past sin = +-1: no angle, NaN
    theta = math.asin(sin_theta) if abs(sin_theta) <= 1.0 else math.nan
    if not lo <= theta <= hi:
        ends = music_spectrum(np.array([lo, hi]), eig2_hermitian(cov).u_n, geometry)
        theta = (lo, hi)[int(np.argmax(ends))]
    return AoAMeasurement(float(theta), window.window_idx, True, cov)


def spectrum_peak(measurement: AoAMeasurement, geometry: ArrayGeometry) -> float:
    "Pseudospectrum of a measurement's window at its angle; NaN when invalid."
    if not measurement.valid:
        return math.nan
    u_n = eig2_hermitian(measurement.covariance).u_n
    return music_spectrum(measurement.theta_hat, u_n, geometry)
