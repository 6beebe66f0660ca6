"""Two-element reader array geometry and round-trip steering vectors.

The reader's two antennas sit on the x-axis at (-d/2, 0) and (d/2, 0).
Angles are measured from array broadside (the +y axis), positive toward +x,
in radians everywhere in this package.  Because the wave travels
reader -> tag -> reader, the inter-element phase is twice that of a one-way
uniform linear array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"Speed of light in m/s."


@dataclass(frozen=True)
class ArrayGeometry:
    """Carrier frequency and element spacing of the two-antenna reader."""

    carrier_freq_hz: float
    element_spacing_m: float

    def __post_init__(self):
        if self.carrier_freq_hz <= 0:
            raise ValueError(f"carrier_freq_hz must be > 0, got {self.carrier_freq_hz}")
        if self.element_spacing_m <= 0:
            raise ValueError(f"element_spacing_m must be > 0, got {self.element_spacing_m}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz


@dataclass(frozen=True)
class ScenePose:
    """Reader and tag positions in the 2-D reader frame (meters)."""

    reader_pos: tuple[float, float]
    tag_pos: tuple[float, float]

    def __post_init__(self):
        if np.allclose(self.reader_pos, self.tag_pos):
            raise ValueError("reader and tag positions must be distinct")

    def is_far_field(self, geometry: ArrayGeometry) -> bool:
        "True when the tag range is at least 2*D^2/lambda, D the array aperture."
        rng = math.hypot(self.tag_pos[0] - self.reader_pos[0],
                         self.tag_pos[1] - self.reader_pos[1])
        d = geometry.element_spacing_m
        return rng >= 2.0 * d * d / geometry.wavelength_m


def aoa_from_positions(pose: ScenePose) -> float:
    """Azimuth angle of the tag relative to array broadside, in radians.

    Zero is broadside (+y), positive toward +x; tags in front of the array
    map into (-pi/2, pi/2).
    """
    dx = pose.tag_pos[0] - pose.reader_pos[0]
    dy = pose.tag_pos[1] - pose.reader_pos[1]
    return math.atan2(dy, dx) - math.pi / 2.0


def steering_phase(theta: float | np.ndarray, geometry: ArrayGeometry) -> float | np.ndarray:
    "Round-trip inter-element phase (4*pi*d/lambda)*sin(theta)."
    return 4.0 * np.pi * geometry.element_spacing_m / geometry.wavelength_m * np.sin(theta)


def steering_vector(theta: float, geometry: ArrayGeometry) -> np.ndarray:
    """Round-trip steering vector [1, exp(j*(4*pi*d/lambda)*sin(theta))].

    The phase doubling relative to a one-way array comes from the
    backscatter path traversing the reader-tag distance twice.
    """
    return np.array([1.0 + 0.0j, np.exp(1j * steering_phase(theta, geometry))])


def unambiguous_fov(geometry: ArrayGeometry) -> float:
    """Half-angle of the unambiguous field of view, asin(lambda/(4d)) in radians.

    Saturates at pi/2 for spacings at or below lambda/4, where every angle
    maps to a distinct steering vector.
    """
    ratio = geometry.wavelength_m / (4.0 * geometry.element_spacing_m)
    if ratio >= 1.0:
        return math.pi / 2.0
    return math.asin(ratio)
