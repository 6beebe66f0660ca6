import math
from dataclasses import dataclass

import numpy as np
import pytest

from tagtrack.geometry import SPEED_OF_LIGHT, ArrayGeometry, steering_phase, unambiguous_fov

# --- scene geometry for the tests -----------------------------------------
# Tag poses and the steering vector, which test_music and test_simulate use
# as references; the library itself needs only steering_phase.


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


def steering_vector(theta: float, geometry: ArrayGeometry) -> np.ndarray:
    """Round-trip steering vector [1, exp(j*(4*pi*d/lambda)*sin(theta))].

    The phase doubling relative to a one-way array comes from the
    backscatter path traversing the reader-tag distance twice.
    """
    return np.array([1.0 + 0.0j, np.exp(1j * steering_phase(theta, geometry))])


def paper_geometry(spacing_wavelengths=0.8):
    lam = SPEED_OF_LIGHT / 865.7e6
    return ArrayGeometry(865.7e6, spacing_wavelengths * lam)


class TestWavelength:
    def test_paper_carrier(self):
        geo = paper_geometry()
        lam = geo.wavelength_m
        assert lam == pytest.approx(SPEED_OF_LIGHT / 865.7e6, rel=1e-12)
        # the published 34.65 cm figure was rounded from c ~= 3e8 m/s
        assert lam == pytest.approx(0.3465, abs=2.5e-3)

    def test_unit_wavelength(self):
        geo = ArrayGeometry(SPEED_OF_LIGHT, 0.1)
        assert geo.wavelength_m == 1.0

    def test_half_meter(self):
        geo = ArrayGeometry(2 * SPEED_OF_LIGHT, 0.1)
        assert geo.wavelength_m == 0.5

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0.0, 0.1)
        with pytest.raises(ValueError):
            ArrayGeometry(-5.0, 0.1)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            ArrayGeometry(865.7e6, 0.0)


class TestAoaFromPositions:
    def test_broadside(self):
        pose = ScenePose((0.0, 0.0), (0.0, 3.0))
        assert aoa_from_positions(pose) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_right(self):
        # atan2(1/sqrt2, 1/sqrt2) - pi/2 = -pi/4
        pose = ScenePose((0.0, 0.0), (3.0, 3.0))
        assert aoa_from_positions(pose) == pytest.approx(-math.pi / 4, abs=1e-12)

    def test_diagonal_left(self):
        pose = ScenePose((0.0, 0.0), (-3.0, 3.0))
        assert aoa_from_positions(pose) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_range_of_result(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            xy = rng.uniform(-5, 5, size=2)
            if np.allclose(xy, 0):
                continue
            theta = aoa_from_positions(ScenePose((0.0, 0.0), tuple(xy)))
            assert -3 * math.pi / 2 < theta <= math.pi / 2
            if xy[1] > 0:
                assert -math.pi / 2 < theta < math.pi / 2

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError):
            ScenePose((1.0, 2.0), (1.0, 2.0))

    def test_far_field_threshold(self):
        geo = paper_geometry()
        d = geo.element_spacing_m
        threshold = 2 * d * d / geo.wavelength_m
        near = ScenePose((0.0, 0.0), (0.0, 0.9 * threshold))
        far = ScenePose((0.0, 0.0), (0.0, 1.1 * threshold))
        assert not near.is_far_field(geo)
        assert far.is_far_field(geo)


class TestSteeringVector:
    def test_broadside_all_ones(self):
        a = steering_vector(0.0, paper_geometry())
        np.testing.assert_allclose(a, [1.0, 1.0], atol=1e-15)

    def test_fifteen_degrees_phase(self):
        # 4*pi*0.8*sin(15 deg) = 2.60193 rad
        a = steering_vector(math.radians(15.0), paper_geometry())
        assert a[0] == 1.0 + 0.0j
        assert abs(a[1]) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(a[1]) == pytest.approx(2.6018, abs=1e-3)

    def test_conjugate_symmetry(self):
        geo = paper_geometry()
        for theta0 in [0.05, 0.2, math.radians(17.0)]:
            plus = steering_vector(theta0, geo)
            minus = steering_vector(-theta0, geo)
            np.testing.assert_allclose(minus, plus.conj(), atol=1e-14)

    def test_round_trip_doubling_on_degree_grid(self):
        geo = paper_geometry()
        lam = geo.wavelength_m
        d = geo.element_spacing_m
        for deg in range(-90, 91):
            theta = math.radians(deg)
            one_way = 2 * math.pi * d / lam * math.sin(theta)
            assert steering_phase(theta, geo) == pytest.approx(2 * one_way, rel=1e-12, abs=1e-12)


class TestUnambiguousFov:
    def test_paper_spacing(self):
        fov = unambiguous_fov(paper_geometry(0.8))
        assert math.degrees(fov) == pytest.approx(18.21, abs=0.01)

    def test_quarter_wavelength_saturates(self):
        assert unambiguous_fov(paper_geometry(0.25)) == math.pi / 2

    def test_dense_spacing_saturates(self):
        assert unambiguous_fov(paper_geometry(0.1)) == math.pi / 2

    def test_half_wavelength(self):
        fov = unambiguous_fov(paper_geometry(0.5))
        assert math.degrees(fov) == pytest.approx(30.0, abs=1e-9)

    def test_distinct_vectors_inside_fov(self):
        # injectivity inside the open interval: the inter-element phase is
        # strictly monotone in theta and spans less than a full turn
        geo = paper_geometry()
        fov = unambiguous_fov(geo)
        grid = np.linspace(-fov + 1e-9, fov - 1e-9, 721)
        phases = steering_phase(grid, geo)
        assert np.all(np.diff(phases) > 0)
        assert phases[-1] - phases[0] < 2 * math.pi


class TestAliasStructure:
    def test_alias_at_0p8_lambda(self):
        # (4*pi*d/lambda) * 0.625 = 2*pi exactly when d = 0.8*lambda
        geo = paper_geometry(0.8)
        theta_alias = math.asin(0.625)
        assert math.degrees(theta_alias) == pytest.approx(38.68, abs=0.01)
        a0 = steering_vector(0.0, geo)
        a1 = steering_vector(theta_alias, geo)
        np.testing.assert_allclose(a0, a1, atol=1e-12)
