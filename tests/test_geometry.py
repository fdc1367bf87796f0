"""Tests for spherical/equirectangular geometry primitives."""

import math

import numpy as np
import pytest

from vq360.geometry import (
    FieldOfView,
    Resolution,
    SphericalPoint,
    angular_distance_deg,
    cartesian_to_spherical_arrays,
    column_centers_deg,
    equivalent_pixels_picture,
    equivalent_pixels_viewport,
    row_centers_deg,
    solid_angle_sr,
    spherical_to_cartesian,
    spherical_to_cartesian_arrays,
    spherical_to_pixel_arrays,
)

from rotations import phi_rotation_matrix, theta_rotation_matrix

RES_4K = Resolution(3840, 1920)
FOV_DEFAULT = FieldOfView(100.0, 85.0)


def wrap_delta_deg(a, b):
    """Smallest absolute azimuth difference, wraparound-aware."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % 360.0
    return np.minimum(d, 360.0 - d)


def test_spherical_to_cartesian_axes():
    center = spherical_to_cartesian(SphericalPoint(180.0, 90.0))
    assert np.allclose([center.x, center.y, center.z], [0.0, -1.0, 0.0], atol=1e-15)
    north = spherical_to_cartesian(SphericalPoint(180.0, 0.0))
    assert np.allclose([north.x, north.y, north.z], [0.0, 0.0, 1.0], atol=1e-15)
    east = spherical_to_cartesian(SphericalPoint(90.0, 90.0))
    assert np.allclose([east.x, east.y, east.z], [1.0, 0.0, 0.0], atol=1e-15)


def test_cartesian_to_spherical_examples():
    theta, phi = cartesian_to_spherical_arrays(np.array([0.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, -1.0]))
    assert theta[0] == pytest.approx(180.0, abs=1e-12)
    assert phi[0] == pytest.approx(90.0, abs=1e-12)
    assert theta[1] == 0.0
    assert phi[1] == pytest.approx(180.0, abs=1e-12)
    # Angles do not depend on the vector's length.
    scaled = cartesian_to_spherical_arrays(np.float64(0.0), np.float64(-3.0), np.float64(0.0))
    assert scaled == pytest.approx((180.0, 90.0), abs=1e-12)


def test_round_trip_property():
    rng = np.random.default_rng(7)
    n = 200_000
    theta = rng.uniform(0.0, 360.0, n)
    phi = np.degrees(np.arccos(rng.uniform(-1.0, 1.0, n)))
    x, y, z = spherical_to_cartesian_arrays(theta, phi)
    assert np.allclose(x * x + y * y + z * z, 1.0, atol=1e-12)
    theta_back, phi_back = cartesian_to_spherical_arrays(x, y, z)
    assert wrap_delta_deg(theta, theta_back).max() < 1e-9
    assert np.abs(phi - phi_back).max() < 1e-9


def test_spherical_point_normalization():
    assert SphericalPoint(365.0, 90.0).theta_deg == pytest.approx(5.0)
    assert SphericalPoint(-10.0, 90.0).theta_deg == pytest.approx(350.0)
    assert SphericalPoint(0.0, 200.0).phi_deg == 180.0
    assert SphericalPoint(0.0, -5.0).phi_deg == 0.0
    # A tiny negative azimuth rounds to 360 under mod and folds to 0, as in SessionTrace.
    assert SphericalPoint(-1e-20, 90.0).theta_deg == 0.0
    assert SphericalPoint(360.0, 90.0).theta_deg == 0.0
    for theta, phi in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 90.0), (10.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            SphericalPoint(theta, phi)


def test_pixel_center_examples():
    assert column_centers_deg(RES_4K)[1919] == pytest.approx(179.953125, abs=1e-12)
    assert row_centers_deg(RES_4K)[959] == pytest.approx(89.953125, abs=1e-12)
    small = Resolution(4, 2)
    assert column_centers_deg(small).tolist() == [45.0, 135.0, 225.0, 315.0]
    assert row_centers_deg(small).tolist() == [45.0, 135.0]


def test_pixel_round_trip_identity():
    res = Resolution(64, 32)
    theta, phi = np.meshgrid(column_centers_deg(res), row_centers_deg(res))
    col, row = spherical_to_pixel_arrays(theta, phi, res)
    want_row, want_col = np.indices((res.n_v, res.n_h))
    assert np.array_equal(col, want_col)
    assert np.array_equal(row, want_row)
    # The far frame edges are clamped into the last column and row.
    edge = spherical_to_pixel_arrays(np.array([360.0]), np.array([180.0]), res)
    assert (edge[0][0], edge[1][0]) == (res.n_h - 1, res.n_v - 1)


def test_solid_angle_examples():
    assert solid_angle_sr(FieldOfView(90.0, 90.0)) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-14)
    assert solid_angle_sr(FOV_DEFAULT) == pytest.approx(2.1758570461483835, rel=1e-12)
    near_hemisphere = solid_angle_sr(FieldOfView(179.999, 179.999))
    assert near_hemisphere == pytest.approx(2.0 * math.pi, rel=1e-4)


def test_solid_angle_quadrature_oracle():
    """Numerical integration of the pyramid's spherical footprint.

    A direction (x, y, z) with forward component -y lies in the pyramid
    iff |arctan(x / -y)| <= theta_vp/2 and |arctan(z / -y)| <= phi_vp/2.
    Summing sin(phi) dtheta dphi over member pixel centers approximates
    the solid angle.
    """
    fov = FOV_DEFAULT
    res = Resolution(2880, 1440)
    half_t = math.radians(fov.theta_deg / 2.0)
    half_p = math.radians(fov.phi_deg / 2.0)
    theta = np.deg2rad((np.arange(res.n_h) + 0.5) * 360.0 / res.n_h)
    phi = np.deg2rad((np.arange(res.n_v) + 0.5) * 180.0 / res.n_v)
    x = np.sin(phi)[:, None] * np.sin(theta)[None, :]
    forward = -np.sin(phi)[:, None] * np.cos(theta)[None, :]
    z = np.broadcast_to(np.cos(phi)[:, None], x.shape)
    inside = (forward > 0.0) & (np.abs(np.arctan2(x, forward)) <= half_t) & (
        np.abs(np.arctan2(z, forward)) <= half_p
    )
    cell_sr = (2.0 * math.pi / res.n_h) * (math.pi / res.n_v)
    quadrature = float(np.sum(np.sin(phi)[:, None] * inside) * cell_sr)
    assert quadrature == pytest.approx(solid_angle_sr(fov), rel=2e-3)


def test_solid_angle_monotone_in_each_angle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        t, p = rng.uniform(1.0, 178.0, 2)
        bump = rng.uniform(0.1, 1.9)
        base = solid_angle_sr(FieldOfView(t, p))
        assert solid_angle_sr(FieldOfView(min(t + bump, 179.9), p)) > base
        assert solid_angle_sr(FieldOfView(t, min(p + bump, 179.9))) > base


def test_equivalent_pixels_picture_matches_row_sum():
    """The closed form is the continuous limit of summing sin(phi)."""
    exact = RES_4K.n_h * float(np.sum(np.sin(np.deg2rad(row_centers_deg(RES_4K)))))
    closed = equivalent_pixels_picture(RES_4K)
    assert abs(closed - exact) / exact < 1e-3
    assert closed == pytest.approx(2.0 / math.pi * 3840 * 1920, rel=1e-14)


def test_equivalent_pixels_viewport_hemisphere_limit():
    res = RES_4K
    wide = equivalent_pixels_viewport(res, FieldOfView(179.999, 179.999))
    assert wide == pytest.approx(equivalent_pixels_picture(res) / 2.0, rel=1e-4)


def test_rotate_phi_examples():
    center = np.array([0.0, -1.0, 0.0])
    assert np.allclose(phi_rotation_matrix(90.0) @ center, center, atol=1e-15)
    assert np.allclose(phi_rotation_matrix(0.0) @ center, [0.0, 0.0, 1.0], atol=1e-15)
    lowered = cartesian_to_spherical_arrays(*(phi_rotation_matrix(135.0) @ center))
    assert lowered == pytest.approx((180.0, 135.0), abs=1e-12)


def test_rotations_preserve_norm_and_invert():
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(500, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    for target in (0.0, 17.0, 90.0, 141.5, 180.0):
        rotated = vecs @ phi_rotation_matrix(target).T
        assert np.abs(np.linalg.norm(rotated, axis=1) - 1.0).max() < 1e-12
        back = rotated @ phi_rotation_matrix(target)
        assert np.abs(back - vecs).max() < 1e-12


def test_rotate_theta_wraps():
    theta = np.array([180.0, 350.0, 0.0, 90.0, 359.5])
    delta = np.array([140.0, 20.0, 1.0, 1.0, 1.0])
    xyz = np.stack(spherical_to_cartesian_arrays(theta, np.full(theta.size, 60.0)), axis=-1)
    shifted = [cartesian_to_spherical_arrays(*(theta_rotation_matrix(d) @ v)) for v, d in zip(xyz, delta)]
    assert wrap_delta_deg([t for t, _ in shifted], [320.0, 10.0, 1.0, 91.0, 0.5]).max() < 1e-9
    assert np.allclose([p for _, p in shifted], 60.0)


def test_angular_distance_examples():
    a = SphericalPoint(0.0, 90.0)
    assert angular_distance_deg(a, a) == 0.0
    assert angular_distance_deg(a, SphericalPoint(180.0, 90.0)) == pytest.approx(180.0)
    assert angular_distance_deg(
        SphericalPoint(180.0, 90.0), SphericalPoint(180.0, 45.0)
    ) == pytest.approx(45.0)


def test_angular_distance_symmetry_and_triangle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        pts = [
            SphericalPoint(rng.uniform(0, 360), np.degrees(np.arccos(rng.uniform(-1, 1))))
            for _ in range(3)
        ]
        ab = angular_distance_deg(pts[0], pts[1])
        ba = angular_distance_deg(pts[1], pts[0])
        assert ab == pytest.approx(ba, abs=1e-12)
        bc = angular_distance_deg(pts[1], pts[2])
        ac = angular_distance_deg(pts[0], pts[2])
        assert ac <= ab + bc + 1e-9


def test_field_of_view_bounds():
    with pytest.raises(ValueError):
        FieldOfView(0.0, 90.0)
    with pytest.raises(ValueError):
        FieldOfView(100.0, 180.0)


def test_resolution_validation():
    with pytest.raises(ValueError):
        Resolution(1, 2)
    with pytest.warns(UserWarning):
        Resolution(100, 100)
