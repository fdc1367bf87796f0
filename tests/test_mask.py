"""Tests for viewport mask construction, rasterization and bank centers.

The oracles here are written independently of the library internals:
corner positions come from intersecting the pyramid's face planes, arc
ordinates from great-circle plane normals, membership from an explicit
rotation into the base frame, connected components from a scanline
flood fill, and nearest centers from the haversine formula.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vq360 import mask as mask_module
from vq360 import spans as spans_module
from vq360.geometry import (
    CartesianVector,
    FieldOfView,
    Resolution,
    SphericalPoint,
    angular_distance_deg,
    column_centers_deg,
    equivalent_pixels_viewport,
    row_centers_deg,
    spherical_to_cartesian,
)
from vq360.grade import TileGrid, variant_layout_26
from vq360.mask import (
    _base_polyline,
    _membership_raster,
    arc_phi_deg,
    corner_colatitudes_deg,
    exact_mask,
    exact_membership,
    jaccard_index,
    project_viewport,
    write_mask_npz,
    write_mask_pgm,
)
from vq360.session import _tile_row_weights, _tile_table, _tile_weight_sums, bank_centers, nearest_center_index
from vq360.spans import BOUNDARY_EPS, _project_spans

from reference import full_width_spans, sin_prefix, spans_to_raster
from rotations import phi_rotation_matrix, theta_rotation_matrix

FOV = FieldOfView(100.0, 85.0)
RES = Resolution(960, 480)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def unit(theta_deg, phi_deg):
    t, p = math.radians(theta_deg), math.radians(phi_deg)
    return np.array([math.sin(p) * math.sin(t), math.sin(p) * math.cos(t), math.cos(p)])


def base_frame_direction(direction, pog):
    """Undo the PoG rotation: first the azimuth turn, then the tilt."""
    t = math.radians(pog.theta_deg - 180.0)
    rz = np.array(
        [[math.cos(t), math.sin(t), 0.0], [-math.sin(t), math.cos(t), 0.0], [0.0, 0.0, 1.0]]
    )
    psi = math.radians(90.0 - pog.phi_deg)
    rx = np.array(
        [[1.0, 0.0, 0.0], [0.0, math.cos(psi), math.sin(psi)], [0.0, -math.sin(psi), math.cos(psi)]]
    )
    return rx.T @ (rz.T @ direction)


def pyramid_membership_oracle(theta_deg, phi_deg, pog, fov):
    """Half-space test against the four face planes of the base pyramid."""
    d = base_frame_direction(unit(theta_deg, phi_deg), pog)
    x, y, z = d
    forward = -y
    if forward <= 0.0:
        return False
    half_t = math.radians(fov.theta_deg / 2.0)
    half_p = math.radians(fov.phi_deg / 2.0)
    return abs(math.atan2(x, forward)) <= half_t and abs(math.atan2(z, forward)) <= half_p


def corner_plane_oracle(fov):
    """Top corner as the intersection line of the left and top face planes."""
    t2 = math.radians(fov.theta_deg / 2.0)
    p2 = math.radians(fov.phi_deg / 2.0)
    n_left = np.array([math.cos(t2), math.sin(t2), 0.0])
    n_top = np.array([0.0, -math.sin(p2), -math.cos(p2)])
    corner = np.cross(n_left, n_top)
    if corner[1] > 0.0:
        corner = -corner
    corner /= np.linalg.norm(corner)
    theta = math.degrees(math.atan2(corner[0], corner[1])) % 360.0
    phi = math.degrees(math.acos(corner[2]))
    return theta, phi


def arc_normal_oracle(p1, p2, theta_deg):
    """Polar angle at a given azimuth of the great circle through p1, p2."""
    n = np.cross(unit(p1.theta_deg, p1.phi_deg), unit(p2.theta_deg, p2.phi_deg))
    t = math.radians(theta_deg)
    phi = math.degrees(math.atan2(-n[2], n[0] * math.sin(t) + n[1] * math.cos(t)))
    return phi + 180.0 if phi < 0.0 else phi


def component_count(support):
    """4-connected components of a boolean raster, no seam adjacency."""
    visited = np.zeros_like(support, dtype=bool)
    n_v, n_h = support.shape
    count = 0
    for seed_row, seed_col in zip(*np.nonzero(support)):
        if visited[seed_row, seed_col]:
            continue
        count += 1
        stack = [(int(seed_row), int(seed_col))]
        visited[seed_row, seed_col] = True
        while stack:
            r, c = stack.pop()
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= rr < n_v and 0 <= cc < n_h and support[rr, cc] and not visited[rr, cc]:
                    visited[rr, cc] = True
                    stack.append((rr, cc))
    return count


def haversine_nearest(centers, pog):
    best, best_d = -1, math.inf
    for i, c in enumerate(centers):
        dp = math.radians(c.phi_deg - pog.phi_deg)
        dt = math.radians(c.theta_deg - pog.theta_deg)
        a = math.sin(dp / 2.0) ** 2 + math.sin(math.radians(pog.phi_deg)) * math.sin(
            math.radians(c.phi_deg)
        ) * math.sin(dt / 2.0) ** 2
        d = 2.0 * math.asin(min(1.0, math.sqrt(a)))
        if d < best_d - 1e-15:
            best, best_d = i, d
    return best


def random_pogs(rng, count):
    return [
        SphericalPoint(rng.uniform(0.0, 360.0), math.degrees(math.acos(rng.uniform(-1.0, 1.0))))
        for _ in range(count)
    ]


FOV_ANGLES = st.one_of(
    st.floats(min_value=0.0, max_value=180.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=179.0, max_value=180.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


# ---------------------------------------------------------------------------
# base boundary
# ---------------------------------------------------------------------------


def test_corner_colatitudes_match_plane_intersection():
    for fov in (FOV, FieldOfView(90.0, 90.0), FieldOfView(60.0, 40.0), FieldOfView(150.0, 110.0)):
        _, phi_oracle = corner_plane_oracle(fov)
        top, bottom = corner_colatitudes_deg(fov)
        assert top == pytest.approx(phi_oracle, abs=1e-9)
        assert bottom == pytest.approx(180.0 - phi_oracle, abs=1e-9)
    top, _ = corner_colatitudes_deg(FOV)
    assert top == pytest.approx(59.5016458305499, abs=1e-9)


def base_sides(fov, samples_per_side):
    """The base polyline as (theta, phi, side, param) arrays of shape
    (4, samples_per_side + 2): rows top (A to B), right (B to D), bottom
    (D to C) and left (C to A), each from its first corner to its last."""
    return [a.reshape(4, -1) for a in _base_polyline(fov.theta_deg, fov.phi_deg, samples_per_side)]


def test_base_boundary_landmarks():
    # An odd count puts the middle sample of each side at its midpoint.
    theta, phi, side, _ = base_sides(FOV, 15)
    assert side.tolist() == [[0] * 17, [1] * 17, [2] * 17, [3] * 17]
    midpoints = [(theta[k, 8], phi[k, 8]) for k in range(4)]
    # E (top), H (right), F (bottom), G (left)
    for got, want in zip(midpoints, [(180.0, 47.5), (230.0, 90.0), (180.0, 132.5), (130.0, 90.0)]):
        assert got == pytest.approx(want, abs=1e-9)
    # Each corner ends one side and starts the next, at the same point.
    for k in range(4):
        assert (theta[k, -1], phi[k, -1]) == (theta[(k + 1) % 4, 0], phi[(k + 1) % 4, 0])
    theta_a, phi_a = corner_plane_oracle(FOV)
    assert theta[0, 0] == pytest.approx(theta_a, abs=1e-9)
    assert phi[0, 0] == pytest.approx(phi_a, abs=1e-9)
    assert theta[0, -1] == pytest.approx(230.0)
    # The corners carry corner_colatitudes_deg exactly, not the arc's value.
    top, bottom = corner_colatitudes_deg(FOV)
    assert phi[:, 0].tolist() == [top, top, bottom, bottom]
    assert phi[:, -1].tolist() == [top, bottom, bottom, top]
    assert phi[2, -1] == pytest.approx(180.0 - phi_a, abs=1e-9)
    # The rasterized base viewport reaches the landmarks: E and F bound the
    # column just east of 180, G and H the row just south of the equator.
    support = project_viewport(SphericalPoint(180.0, 90.0), FOV, RES).weights > 0.0
    rows = row_centers_deg(RES)[support[:, RES.n_h // 2]]
    cols = column_centers_deg(RES)[support[RES.n_v // 2]]
    pitch = RES.row_pitch_deg
    assert 47.5 <= rows.min() < 47.5 + pitch and 132.5 - pitch < rows.max() <= 132.5
    assert 130.0 <= cols.min() < 130.0 + pitch and 230.0 - pitch < cols.max() <= 230.0


def test_vertical_sides_are_meridians():
    theta, phi, side, param = base_sides(FOV, 32)
    assert np.all(theta[3] == 130.0)
    assert np.all(theta[1] == 230.0)
    # A meridian side is parametrized by polar angle: right goes down, left up.
    assert np.array_equal(phi[1], param[1]) and np.array_equal(phi[3], param[3])
    assert np.all(np.diff(phi[1]) > 0.0) and np.all(np.diff(phi[3]) < 0.0)


def test_top_arc_matches_the_great_circle_through_its_corners():
    theta, phi, _, param = base_sides(FOV, 24)
    a = SphericalPoint(theta[0, 0], phi[0, 0])
    b = SphericalPoint(theta[0, -1], phi[0, -1])
    assert np.array_equal(theta[0], param[0])
    for t, p in zip(theta[0, 1:-1], phi[0, 1:-1]):
        assert p == pytest.approx(arc_normal_oracle(a, b, t), abs=1e-9)
        assert 130.0 < t < 230.0


@given(fov_theta=FOV_ANGLES, fov_phi=FOV_ANGLES, samples=st.integers(min_value=1, max_value=40))
@example(fov_theta=100.0, fov_phi=85.0, samples=15)
def test_top_and_bottom_samples_lie_on_their_face_planes(fov_theta, fov_phi, samples):
    """The top and bottom sides are sampled from the planes of the top and
    bottom pyramid faces (rows 0 and 1 of the face normals), corners included."""
    fov = FieldOfView(fov_theta, fov_phi)
    theta, phi, _, _ = base_sides(fov, samples)
    normals = spans_module._base_face_normals(fov)
    for side, normal in ((0, normals[0]), (2, normals[1])):
        for t, p in zip(theta[side], phi[side]):
            assert abs(normal @ unit(t, p)) <= 1e-12


def test_arc_of_a_polar_normal_is_the_equator():
    for normal in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)):
        for theta in np.linspace(0.0, 359.0, 25):
            assert arc_phi_deg(normal, float(theta)) == 90.0


def test_boundary_rejects_bad_sample_count():
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples_per_side"):
            _base_polyline(FOV.theta_deg, FOV.phi_deg, samples)


# ---------------------------------------------------------------------------
# exact membership
# ---------------------------------------------------------------------------


def test_exact_membership_trivials():
    pog = SphericalPoint(123.0, 77.0)
    assert exact_membership(spherical_to_cartesian(pog), pog, FOV)
    antipode = SphericalPoint(pog.theta_deg + 180.0, 180.0 - pog.phi_deg)
    assert not exact_membership(spherical_to_cartesian(antipode), pog, FOV)


def test_exact_membership_boundary_is_inside():
    # Five samples per side: the corners, the side midpoints and more.
    theta, phi, _, _ = _base_polyline(FOV.theta_deg, FOV.phi_deg, 5)
    base_pog = SphericalPoint(180.0, 90.0)
    for t, p in zip(theta, phi):
        assert exact_membership(spherical_to_cartesian(SphericalPoint(t, p)), base_pog, FOV)


def test_exact_membership_matches_pyramid_oracle():
    rng = np.random.default_rng(29)
    for pog in random_pogs(rng, 4):
        for point in random_pogs(rng, 500):
            expected = pyramid_membership_oracle(point.theta_deg, point.phi_deg, pog, FOV)
            assert exact_membership(spherical_to_cartesian(point), pog, FOV) == expected


@given(
    theta=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    phi=st.floats(min_value=0.0, max_value=180.0),
    fov_theta=FOV_ANGLES,
    fov_phi=FOV_ANGLES,
    n_v=st.integers(min_value=2, max_value=60),
)
def test_exact_membership_at_pixel_centers_equals_the_raster(theta, phi, fov_theta, fov_phi, n_v):
    pog, fov, res = SphericalPoint(theta, phi), FieldOfView(fov_theta, fov_phi), Resolution(2 * n_v, n_v)
    raster = _membership_raster(pog, fov, res)
    for row, p in enumerate(row_centers_deg(res)):
        for col, t in enumerate(column_centers_deg(res)):
            assert exact_membership(spherical_to_cartesian(SphericalPoint(t, p)), pog, fov) == raster[row, col]


@given(
    theta=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    phi=st.floats(min_value=0.0, max_value=180.0),
    fov_theta=FOV_ANGLES,
    fov_phi=FOV_ANGLES,
)
# The first two put the top face plane through the north pole, the third
# the bottom face plane through the south pole.
@example(theta=200.0, phi=43.5, fov_theta=100.0, fov_phi=87.0)
@example(theta=200.0, phi=17.0, fov_theta=100.0, fov_phi=34.0)
@example(theta=200.0, phi=136.5, fov_theta=100.0, fov_phi=87.0)
@example(theta=180.0, phi=90.0, fov_theta=100.0, fov_phi=85.0)
@example(theta=123.0, phi=180.0, fov_theta=100.0, fov_phi=85.0)
def test_pole_containment_equals_membership_of_the_poles(theta, phi, fov_theta, fov_phi):
    pog, fov = SphericalPoint(theta, phi), FieldOfView(fov_theta, fov_phi)
    poles = (CartesianVector(0.0, 0.0, 1.0), CartesianVector(0.0, 0.0, -1.0))
    assert mask_module._pole_containment(pog, fov) == tuple(exact_membership(pole, pog, fov) for pole in poles)


def test_pole_containment_where_a_face_plane_holds_a_pole():
    """The oracle's tolerance keeps a pole that lies on a face plane."""
    assert mask_module._pole_containment(SphericalPoint(200.0, 43.5), FieldOfView(100.0, 87.0)) == (True, False)
    assert mask_module._pole_containment(SphericalPoint(200.0, 136.5), FieldOfView(100.0, 87.0)) == (False, True)


def assert_bitwise_equal(got, want):
    """Equal values and equal signs of zero."""
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@given(
    theta=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    phi=st.floats(min_value=0.0, max_value=180.0),
    fov_theta=FOV_ANGLES,
    fov_phi=FOV_ANGLES,
)
# theta = 180 and phi = 90 make the sines of the two rotations exact zeros.
@example(theta=180.0, phi=90.0, fov_theta=100.0, fov_phi=85.0)
@example(theta=180.0, phi=0.0, fov_theta=100.0, fov_phi=85.0)
@example(theta=180.0, phi=135.0, fov_theta=100.0, fov_phi=85.0)
@example(theta=0.0, phi=90.0, fov_theta=100.0, fov_phi=85.0)
@example(theta=270.0, phi=90.0, fov_theta=100.0, fov_phi=85.0)
def test_world_face_normals_equal_the_rotation_matrix_product(theta, phi, fov_theta, fov_phi):
    pog, fov = SphericalPoint(theta, phi), FieldOfView(fov_theta, fov_phi)
    rotation = theta_rotation_matrix(pog.theta_deg - 180.0) @ phi_rotation_matrix(pog.phi_deg)
    assert_bitwise_equal(spans_module._pog_rotations(pog.theta_deg, pog.phi_deg), rotation)
    assert_bitwise_equal(
        spans_module._face_normals(pog.theta_deg, pog.phi_deg, fov), spans_module._base_face_normals(fov) @ rotation.T
    )


def test_base_face_normals_are_cached_read_only():
    normals = spans_module._base_face_normals(FieldOfView(100.0, 85.0))
    assert normals is spans_module._base_face_normals(FieldOfView(100.0, 85.0))
    with pytest.raises(ValueError):
        normals[0, 0] = 1.0


def forward_row(pog):
    """The base forward direction (0, -1, 0) turned to the PoG by the
    rotation that turns the face normals."""
    return spans_module._pog_rotations(pog.theta_deg, pog.phi_deg) @ np.array([0.0, -1.0, 0.0])


def around_the_gaze(pog):
    """Unit directions perpendicular to the gaze, and the same directions
    moved behind it by a few times BOUNDARY_EPS, where only the forward
    test could reject them."""
    rotation = spans_module._pog_rotations(pog.theta_deg, pog.phi_deg)
    across, gaze, up = rotation[:, 0], -rotation[:, 1], rotation[:, 2]
    directions = []
    for angle in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        perpendicular = math.cos(angle) * across + math.sin(angle) * up
        for behind in (0.0, 0.5, 1.0, 2.0, 10.0):
            direction = perpendicular - behind * BOUNDARY_EPS * gaze
            directions.append(direction / np.linalg.norm(direction))
    return directions


# The apex angles at the edge of the rule of _base_face_normals: near 180
# the greatest that drops the forward row and the least that keeps it,
# and near 0, on both axes, the greatest that keeps it and the least that
# drops it.
FORWARD_ROW_EDGES = (
    (179.9999999997708, 85.0, 4),
    (179.99999999977084, 85.0, 5),
    (85.0, 179.99999999977084, 5),
    (2.291831180523293e-10, 2.291831180523293e-10, 5),
    (2.2918311805232931e-10, 2.2918311805232931e-10, 4),
    (2.291831180523293e-10, 85.0, 4),
    (5e-324, 5e-324, 5),
    (179.99999999999997, 179.99999999999997, 5),
    (179.99999999999997, 1e-300, 5),
)


@pytest.mark.parametrize("fov_theta, fov_phi, rows", FORWARD_ROW_EDGES)
def test_face_normals_keep_the_forward_row_only_where_it_can_reject(fov_theta, fov_phi, rows):
    normals = spans_module._base_face_normals(FieldOfView(fov_theta, fov_phi))
    assert normals.shape == (rows, 3)
    if rows == 5:
        assert normals[4].tolist() == [0.0, -1.0, 0.0]


@given(
    theta=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    phi=st.floats(min_value=0.0, max_value=180.0),
    fov_theta=FOV_ANGLES,
    fov_phi=FOV_ANGLES,
    dir_theta=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    dir_phi=st.floats(min_value=0.0, max_value=180.0),
    n_v=st.integers(min_value=2, max_value=40),
)
@example(theta=180.0, phi=90.0, fov_theta=100.0, fov_phi=85.0, dir_theta=0.0, dir_phi=90.0, n_v=30)
@example(theta=0.0, phi=0.0, fov_theta=100.0, fov_phi=85.0, dir_theta=0.0, dir_phi=180.0, n_v=30)
def test_face_normals_accept_what_the_forward_row_accepts(theta, phi, fov_theta, fov_phi, dir_theta, dir_phi, n_v):
    """Whichever rows _base_face_normals keeps, every direction and pixel
    center the oracle accepts also passes the forward test: adding the
    forward row to the rows rejects nothing more."""
    pog, res = SphericalPoint(theta, phi), Resolution(2 * n_v, n_v)
    forward = forward_row(pog)
    antipode = -spherical_to_cartesian(pog).as_array()
    drawn = spherical_to_cartesian(SphericalPoint(dir_theta, dir_phi)).as_array()
    directions = [drawn, antipode, *around_the_gaze(pog)]
    # Pixel centers, in _membership_raster's own expression.
    sin_t, cos_t = spans_module._column_trig(res)
    sin_p, cos_p = spans_module._row_trig(res)
    behind = sin_p[:, None] * (forward[0] * sin_t + forward[1] * cos_t) + forward[2] * cos_p[:, None] < -BOUNDARY_EPS
    for fov in (FieldOfView(fov_theta, fov_phi), *(FieldOfView(t, p) for t, p, _ in FORWARD_ROW_EDGES)):
        for direction in directions:
            if exact_membership(CartesianVector(*direction), pog, fov):
                assert forward @ direction >= -BOUNDARY_EPS
        assert not np.any(_membership_raster(pog, fov, res) & behind)


def test_cached_tables_are_read_only():
    """Every cached table refuses a write into any of its arrays, so no
    caller can change it under the later ones."""
    row_edges, *tile_arrays = _tile_table(variant_layout_26(RES).grid)
    assert type(row_edges) is tuple
    tables = [
        spans_module._column_trig(RES),
        spans_module._row_trig(RES),
        *tile_arrays,
        spans_module._base_face_normals(FOV),
        *_base_polyline(FOV.theta_deg, FOV.phi_deg, 8),
    ]
    assert len(tables) == 10
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0

def one_shot_membership(pog, fov, res):
    """The membership test over the whole raster at once, face by face."""
    normals = spans_module._face_normals(pog.theta_deg, pog.phi_deg, fov)
    theta = np.deg2rad(column_centers_deg(res))
    phi = np.deg2rad(row_centers_deg(res))
    inside = np.ones((res.n_v, res.n_h), dtype=bool)
    for nx, ny, nz in normals:
        azimuthal = nx * np.sin(theta) + ny * np.cos(theta)
        inside &= np.outer(np.sin(phi), azimuthal) + nz * np.cos(phi)[:, None] >= -BOUNDARY_EPS
    return inside


@given(
    theta=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    phi=st.floats(min_value=0.0, max_value=180.0),
    fov_theta=FOV_ANGLES,
    fov_phi=FOV_ANGLES,
    n_v=st.integers(min_value=2, max_value=100),
)
def test_membership_raster_equals_one_shot_evaluation(theta, phi, fov_theta, fov_phi, n_v):
    pog, fov, res = SphericalPoint(theta, phi), FieldOfView(fov_theta, fov_phi), Resolution(2 * n_v, n_v)
    assert np.array_equal(_membership_raster(pog, fov, res), one_shot_membership(pog, fov, res))


# ---------------------------------------------------------------------------
# analytic spans
# ---------------------------------------------------------------------------


def gaze_at(pog, fov, res):
    """The set-up _project_spans reads, for one PoG."""
    (gaze,) = spans_module._gazes(np.array([pog.theta_deg]), np.array([pog.phi_deg]), fov, res)
    return gaze


def spans_at(pog, fov, res):
    """_project_spans at one PoG."""
    return _project_spans(gaze_at(pog, fov, res), res)


def tile_sums(start, rows, grid):
    """_tile_weight_sums into a fresh zeroed table."""
    sums = np.zeros((grid.rows, grid.cols))
    _tile_weight_sums(start, rows, grid, sums)
    return sums


def project_full_width(pog, fov, res):
    """_project_spans expanded to every column, and whether it took a column end again."""
    start, rows, near = spans_at(pog, fov, res)
    return (*full_width_spans(start, rows, res), near.size > 0)


def assert_spans_match_oracle(pog, fov, res):
    start, rows, _ = spans_at(pog, fov, res)
    spans = spans_to_raster(start, rows, res)
    oracle = _membership_raster(pog, fov, res)
    assert np.count_nonzero(spans != oracle) == 0


@given(
    theta=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    phi=st.floats(min_value=0.0, max_value=180.0),
    fov_theta=FOV_ANGLES,
    fov_phi=FOV_ANGLES,
    n_v=st.integers(min_value=2, max_value=240),
)
def test_analytic_spans_match_membership_oracle(theta, phi, fov_theta, fov_phi, n_v):
    assert_spans_match_oracle(
        SphericalPoint(theta, phi), FieldOfView(fov_theta, fov_phi), Resolution(2 * n_v, n_v)
    )


@pytest.mark.parametrize(
    "pog",
    [
        (0.0, 0.0), (123.0, 180.0), (0.3, 0.4), (180.0, 179.5),
        (0.0, 90.0), (359.9, 60.0), (320.0, 110.0), (180.0, 30.0),
        (0.001, 90.0), (359.999, 42.5), (0.0, 137.5),
    ],
)
def test_analytic_spans_match_oracle_at_4k(pog):
    """Poles, the seam and the two special-case masks of the paper; the
    last three are per-face-form PoGs (the equator, and a top or bottom
    face plane through a pole) whose window crosses the seam."""
    assert_spans_match_oracle(SphericalPoint(*pog), FOV, Resolution(3840, 1920))


@pytest.mark.parametrize("pog", [(180.0, 90.0), (0.0, 90.0)])
def test_analytic_spans_keep_boundary_ties(pog):
    """Here a column of pixel centers lies exactly on a side face plane;
    the oracle keeps it through its tolerance, and so must the spans."""
    res = Resolution(60, 30)
    fov = FieldOfView(90.0, 90.0)
    assert_spans_match_oracle(SphericalPoint(*pog), fov, res)


def per_face_spans(pog, fov, res):
    """Reference span kernel: every face's interval in closed form.

    Each face test n.v >= -BOUNDARY_EPS allows, along the column at
    azimuth theta, polar angles in [-delta - w, pi - delta + w] with
    delta = atan2(n_z, A), A = n_x sin(theta) + n_y cos(theta),
    R = hypot(A, n_z) and w = asin(BOUNDARY_EPS / R); a face with
    R <= BOUNDARY_EPS passes the whole column.  The faces' intervals are
    intersected and rounded to row centers.
    """
    normals = spans_module._face_normals(pog.theta_deg, pog.phi_deg, fov)
    theta = np.deg2rad(column_centers_deg(res))
    a = normals[:, :2] @ np.stack([np.sin(theta), np.cos(theta)])
    b = normals[:, 2:]
    delta = np.arctan2(b, a)
    r = np.sqrt(a * a + b * b)
    passes = r <= BOUNDARY_EPS
    w = np.arcsin(BOUNDARY_EPS / np.maximum(r, BOUNDARY_EPS))
    w[passes] = np.inf
    lo = -(delta + w).min(axis=0)
    hi = math.pi - (delta - w).max(axis=0)
    pitch = math.pi / res.n_v
    top = np.ceil(np.maximum(lo, 0.0) / pitch - 0.5)
    bot = np.floor(np.minimum(hi, math.pi) / pitch - 0.5)
    top = np.clip(top, 0, res.n_v).astype(np.int32)
    bot = np.clip(bot, -1, res.n_v - 1).astype(np.int32)
    empty = top > bot
    top[empty] = res.n_v
    bot[empty] = -1
    return top, bot


def assert_spans_match_per_face(pog, fov, res):
    expected_top, expected_bot = per_face_spans(pog, fov, res)
    start, rows, _ = spans_at(pog, fov, res)
    assert rows.dtype == np.intp and rows.shape == (2, gaze_at(pog, fov, res).count)
    top, bot = full_width_spans(start, rows, res)
    assert top.dtype == bot.dtype == np.int32
    assert np.array_equal(top, expected_top)
    assert np.array_equal(bot, expected_bot)


def face_groups(pog, fov):
    """Faces bounding the top end, the bottom end, and steep faces."""
    nz = spans_module._face_normals(pog.theta_deg, pog.phi_deg, fov)[:, 2]
    steep = np.abs(nz) <= spans_module._STEEP_NZ
    return (
        int(np.count_nonzero(~steep & (nz < 0.0))),
        int(np.count_nonzero(~steep & (nz > 0.0))),
        int(np.count_nonzero(steep)),
    )


# One case per path of _project_spans and _tile_weight_sums, as (theta,
# phi, fov_theta, fov_phi, n_v); the boxes are those of a 5x8 tile grid.
WINDOW_PATH_CASES = {
    "top end at the frame edge": (123.0, 0.0, 100.0, 85.0, 240),
    "bottom end at the frame edge": (77.0, 180.0, 100.0, 85.0, 240),
    "per-face form, top face plane through the north pole": (200.0, 43.5, 100.0, 87.0, 240),
    "window across the seam": (359.9, 60.0, 100.0, 85.0, 240),
    "per-face form, steep side faces": (200.0, 90.0, 100.0, 85.0, 240),
    "column end taken again": (123.0, 69.00000000002865, 100.0, 60.0, 30),
    "box of one tile row": (180.0, 90.0, 10.0, 10.0, 240),
    "box of five tile rows": (180.0, 90.0, 170.0, 150.0, 240),
}


def with_window_path_examples(**extra):
    """A hypothesis @example of every WINDOW_PATH_CASES entry."""

    def decorate(test):
        for theta, phi, fov_theta, fov_phi, n_v in WINDOW_PATH_CASES.values():
            test = example(theta=theta, phi=phi, fov_theta=fov_theta, fov_phi=fov_phi, n_v=n_v, **extra)(test)
        return test

    return decorate


@given(
    theta=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    phi=st.floats(min_value=0.0, max_value=180.0),
    fov_theta=FOV_ANGLES,
    fov_phi=FOV_ANGLES,
    n_v=st.integers(min_value=2, max_value=240),
)
@with_window_path_examples()
def test_binding_face_spans_equal_per_face_spans(theta, phi, fov_theta, fov_phi, n_v):
    assert_spans_match_per_face(
        SphericalPoint(theta, phi), FieldOfView(fov_theta, fov_phi), Resolution(2 * n_v, n_v)
    )


# (pog, fov, (top-end faces, bottom-end faces, steep faces)).  A PoG with
# no steep face takes the binding-face form: the two sides share the sign
# of n_z, so with sides of ordinary width the top end has 0, 1, 3 or 4
# faces.  A PoG with a steep face takes the per-face form on its whole
# window: at the equator, with a face plane through a pole, or with a
# near-zero width that makes the sides steep and leaves 1 or 2 tilted
# faces at the top end.  The last cases are fields of view that keep the
# forward face as a fifth row (_base_face_normals).
BRANCH_CASES = [
    ((30.0, 60.0), (100.0, 85.0), (1, 3, 0)),
    ((200.0, 91.0), (0.001, 85.0), (1, 1, 2)),
    ((200.0, 170.0), (0.001, 85.0), (2, 0, 2)),
    ((30.0, 120.0), (100.0, 85.0), (3, 1, 0)),
    ((123.0, 180.0), (100.0, 85.0), (4, 0, 0)),
    ((0.0, 0.0), (100.0, 85.0), (0, 4, 0)),
    ((180.0, 90.0), (100.0, 85.0), (1, 1, 2)),
    ((200.0, 43.5), (100.0, 87.0), (0, 3, 1)),
    ((200.0, 17.0), (100.0, 34.0), (0, 3, 1)),
    ((200.0, 89.99), (100.0, 85.0), (1, 3, 0)),
    ((200.0, 90.000001), (100.0, 85.0), (1, 1, 2)),
    ((30.0, 60.0), (179.99999, 179.99999), (0, 4, 0)),
    ((180.0, 90.0), (179.99999, 179.99999), (0, 0, 4)),
    ((75.0, 100.0), (0.5, 0.3), (3, 1, 0)),
    ((75.0, 90.0), (0.5, 0.3), (1, 1, 2)),
    ((75.0, 100.0), (0.0004, 0.0003), (1, 1, 2)),
    ((1.0, 91.0), (2.225073858507e-311, 1.0), (1, 1, 2)),
    ((30.0, 60.0), (179.99999999999997, 179.99999999999997), (0, 5, 0)),
    ((30.0, 120.0), (5e-324, 5e-324), (2, 1, 2)),
]


@pytest.mark.parametrize("n_v", [30, 480, 1920])
@pytest.mark.parametrize("pog, fov, groups", BRANCH_CASES)
def test_binding_face_spans_every_branch(pog, fov, groups, n_v):
    pog, fov, res = SphericalPoint(*pog), FieldOfView(*fov), Resolution(2 * n_v, n_v)
    assert face_groups(pog, fov) == groups
    assert gaze_at(pog, fov, res).steep == (groups[2] > 0)
    assert_spans_match_per_face(pog, fov, res)


def least_c_rule_misses_a_row(pog, fov, res):
    """True if at some column the face of least c, taken with its own
    tolerance, moves a column end across a row center that the per-face
    bound of another face of its group puts on the other side."""
    normals = spans_module._face_normals(pog.theta_deg, pog.phi_deg, fov)
    theta = np.deg2rad(column_centers_deg(res))
    a = normals[:, :2] @ np.stack([np.sin(theta), np.cos(theta)])
    nz = normals[:, 2:]
    r = np.hypot(a, nz)
    rows = np.deg2rad(row_centers_deg(res))
    for sign in (-1.0, 1.0):
        group = np.flatnonzero((np.sign(nz[:, 0]) == sign) & (np.abs(nz[:, 0]) > spans_module._STEEP_NZ))
        if len(group) < 2:
            continue
        # Per-face end: lower bound of the top end, upper bound of the bottom end.
        ends = math.pi / 2 - sign * (np.arctan(a[group] / np.abs(nz[group])) + BOUNDARY_EPS / r[group])
        cols = np.arange(res.n_h)
        least_c = ends[np.argmin(a[group] / np.abs(nz[group]), axis=0), cols]
        exact = ends.max(axis=0) if sign < 0 else ends.min(axis=0)
        low, high = np.minimum(least_c, exact), np.maximum(least_c, exact)
        if np.any((rows[:, None] > low) & (rows[:, None] < high)):
            return True
    return False


# (pog, fov, n_v): a viewport corner, where two faces of one end cross,
# placed on a column center and between the two faces' tolerances of a
# row center, at the top end (PoG below the equator) and the bottom end.
CORNER_TIE_CASES = [
    ((344.0370653835663, 104.5468405991792), (100.0, 85.0), 777),
    ((79.99210769480675, 144.39837119896404), (100.0, 85.0), 1000),
    ((305.65736994823135, 36.299882532522915), (60.0, 40.0), 777),
    ((150.18301204642037, 28.397382283038528), (30.0, 170.0), 1920),
]


@pytest.mark.parametrize("pog, fov, n_v", CORNER_TIE_CASES)
def test_binding_face_spans_at_corner_near_ties(pog, fov, n_v):
    pog, fov, res = SphericalPoint(*pog), FieldOfView(*fov), Resolution(2 * n_v, n_v)
    assert least_c_rule_misses_a_row(pog, fov, res)
    assert_spans_match_per_face(pog, fov, res)
    assert_spans_match_oracle(pog, fov, res)


@pytest.mark.parametrize("n_v", [30, 481, 1920])
@pytest.mark.parametrize("end", ["top", "bottom"])
def test_spans_keep_rows_within_a_tilted_face_tolerance(end, n_v):
    """At the viewport's middle column the top (bottom) face plane passes
    half its tolerance BOUNDARY_EPS above (below) a row center: the
    oracle keeps that row, and so must the spans."""
    res = Resolution(2 * n_v, n_v)
    fov = FieldOfView(100.0, 60.0)
    col = res.n_h // 3
    row = n_v // 5 if end == "top" else n_v - 1 - n_v // 5
    offset = 0.5 * BOUNDARY_EPS if end == "top" else -0.5 * BOUNDARY_EPS
    edge = math.radians(row_centers_deg(res)[row]) + offset
    phi = math.degrees(edge + math.radians(fov.phi_deg / 2.0) * (1.0 if end == "top" else -1.0))
    pog = SphericalPoint(float(column_centers_deg(res)[col]), phi)
    nz = spans_module._face_normals(pog.theta_deg, pog.phi_deg, fov)[0 if end == "top" else 1, 2]
    assert abs(nz) > spans_module._STEEP_NZ
    top, bot, retook = project_full_width(pog, fov, res)
    assert retook
    assert (top[col] if end == "top" else bot[col]) == row
    assert_spans_match_per_face(pog, fov, res)
    assert_spans_match_oracle(pog, fov, res)


@pytest.mark.parametrize("phi, end", [(90.0115, "top"), (89.9885, "bottom")])
def test_spans_keep_rows_within_a_nearly_steep_face_tolerance(phi, end):
    """The left face has |n_z| = 1.5e-4, just above _STEEP_NZ, so its
    tolerance is 6.5e-9 rad at column 300, where its plane crosses 0.9 of
    that above (below) the equator, a row center at n_v = 481."""
    res = Resolution(962, 481)
    fov = FieldOfView(100.0, 60.0)
    pog = SphericalPoint(162.4532218849912, phi)
    nz = spans_module._face_normals(pog.theta_deg, pog.phi_deg, fov)[2, 2]
    assert spans_module._STEEP_NZ < abs(nz) < 2.0 * spans_module._STEEP_NZ
    top, bot, retook = project_full_width(pog, fov, res)
    assert retook
    assert (top[300] if end == "top" else bot[300]) == 240
    assert_spans_match_per_face(pog, fov, res)
    assert_spans_match_oracle(pog, fov, res)


def test_steep_face_nz_values_reach_the_per_face_path():
    """The steep faces of BRANCH_CASES hold n_z = +0.0 and |n_z| ~ 1e-17."""
    equator = spans_module._face_normals(180.0, 90.0, FOV)[:, 2]
    assert equator[2:].tolist() == [0.0, 0.0]
    assert all(math.copysign(1.0, v) > 0 for v in equator[2:])
    top_through_pole = spans_module._face_normals(200.0, 43.5, FieldOfView(100.0, 87.0))
    assert 0.0 < -top_through_pole[0, 2] < 1e-15
    top_through_pole = spans_module._face_normals(200.0, 17.0, FieldOfView(100.0, 34.0))
    assert 0.0 < top_through_pole[0, 2] < 1e-15


@pytest.mark.parametrize("pog", [(180.0, 90.0), (0.0, 90.0), (37.0, 90.0)])
def test_binding_face_spans_with_negative_zero_nz(monkeypatch, pog):
    """n_z = -0.0 turns atan2's +pi into -pi on the per-face path."""
    normals = spans_module._face_normals(*pog, FOV)
    normals[normals[:, 2] == 0.0, 2] = -0.0
    monkeypatch.setattr(
        spans_module, "_face_normals", lambda theta, phi, fov: np.broadcast_to(normals, np.shape(theta) + normals.shape).copy()
    )
    assert_spans_match_per_face(SphericalPoint(*pog), FOV, Resolution(60, 30))
    assert_spans_match_per_face(SphericalPoint(*pog), FOV, RES)


def test_binding_face_spans_and_tile_sums_on_a_4k_pole_sweep():
    """300 gaze points 3 degrees apart along a great circle through both
    poles whose longitude drifts across the seam; every 30th point is a
    pole or on the equator."""
    res = Resolution(3840, 1920)
    grid = variant_layout_26(res).grid
    for k in range(300):
        along = (3.0 * k) % 360.0
        meridian = (340.0 + 0.13 * k) % 360.0
        if along <= 180.0:
            pog = SphericalPoint(meridian, along)
        else:
            pog = SphericalPoint((meridian + 180.0) % 360.0, 360.0 - along)
        expected = per_face_spans(pog, FOV, res)
        window = spans_at(pog, FOV, res)[:2]
        spans = full_width_spans(*window, res)
        assert np.array_equal(spans[0], expected[0]) and np.array_equal(spans[1], expected[1]), pog
        # The row differences taken apart, as np.diff, then per tile.
        rows = np.clip(grid.row_edges()[:, None], expected[0], expected[1] + 1)
        weights = np.diff(sin_prefix(res)[rows], axis=0)
        assert np.array_equal(tile_sums(*window, grid), np.add.reduceat(weights, grid.col_edges()[:-1], axis=1))


def corner_radius_deg(fov):
    """Angle between the pyramid's axis and its corner edges."""
    t = math.tan(math.radians(fov.theta_deg / 2.0))
    p = math.tan(math.radians(fov.phi_deg / 2.0))
    return math.degrees(math.acos(1.0 / math.sqrt(1.0 + t * t + p * p)))


def cap_radius_deg(fov):
    """The corner radius widened by the oracle tolerance's reach: no
    accepted direction lies farther from the PoG."""
    return corner_radius_deg(fov) + math.degrees(spans_module._tolerance_reach(fov))


def corner_hull_half_width_deg(pog, fov):
    """Greatest azimuth distance from the PoG to a viewport corner: the
    base corners (+-tan(h/2), -1, +-tan(v/2)) turned by the reference
    rotations."""
    rotation = theta_rotation_matrix(pog.theta_deg - 180.0) @ phi_rotation_matrix(pog.phi_deg)
    t = math.tan(math.radians(fov.theta_deg / 2.0))
    p = math.tan(math.radians(fov.phi_deg / 2.0))
    corners = np.array([[x, -1.0, z] for x in (t, -t) for z in (p, -p)]) @ rotation.T
    azimuths = np.degrees(np.arctan2(corners[:, 0], corners[:, 1]))
    return float(np.abs((azimuths - pog.theta_deg + 180.0) % 360.0 - 180.0).max())


def pole_gap_deg(pog, fov):
    """Angle from the nearer pole to the viewport, negative when the
    viewport holds it: the midpoint of the top (bottom) arc, v/2 straight
    above (below) the PoG, is the foot of that pole on the arc's plane."""
    return min(pog.phi_deg, 180.0 - pog.phi_deg) - fov.phi_deg / 2.0


def pole_margin(fov, res):
    """Sine of the pole gap within which the window is every column."""
    return math.sin(spans_module._tolerance_reach(fov)) / math.sin(math.radians(res.column_pitch_deg) / 2.0)


def assert_window_spans(pog, fov, res):
    """Spans equal the per-face kernel's, and the oracle holds no pixel in
    a column outside the column window.  Returns the window."""
    gaze = gaze_at(pog, fov, res)
    start, count = gaze.start, gaze.count
    assert 0 <= start < res.n_h and 1 <= count <= res.n_h
    assert_spans_match_per_face(pog, fov, res)
    outside = np.ones(res.n_h, dtype=bool)
    outside[(start + np.arange(count)) % res.n_h] = False
    assert not _membership_raster(pog, fov, res)[:, outside].any()
    return start, count


def test_cap_radius_bounds_the_corners():
    """The cap radius is a hair wider than the corner radius, and a
    direction pushed out of a corner of the centered viewport by a little
    more than the reach, less its slack, is rejected."""
    assert corner_radius_deg(FOV) == pytest.approx(56.4, abs=0.05)
    margin = cap_radius_deg(FOV) - corner_radius_deg(FOV)
    assert 0.0 < margin < 1e-7
    reach = spans_module._tolerance_reach(FOV) - spans_module._WINDOW_SLACK
    t, p = math.tan(math.radians(50.0)), math.tan(math.radians(42.5))
    corner = np.array([t, -1.0, p]) / math.sqrt(1.0 + t * t + p * p)
    outward = np.array([t, 0.0, p]) - np.dot([t, 0.0, p], corner) * corner
    outward /= np.linalg.norm(outward)
    center = SphericalPoint(180.0, 90.0)
    for push, accepted in ((0.0, True), (1.01 * reach, False)):
        direction = math.cos(push) * corner + math.sin(push) * outward
        assert exact_membership(CartesianVector(*direction), center, FOV) == accepted


@pytest.mark.parametrize("res", [RES, Resolution(3840, 1920)])
@pytest.mark.parametrize("theta", [0.0, 123.4, 359.99])
@pytest.mark.parametrize("north", [True, False])
@pytest.mark.parametrize("radius", ["corner", "cap", "edge"])
@pytest.mark.parametrize("offset", [-1e-9, 1e-9, 1e-3])
def test_window_where_the_cap_touches_a_pole(res, theta, north, radius, offset):
    """The PoG a little nearer or farther from a pole than the corner
    radius, than the cap radius, or than v/2, where the top (bottom) arc
    runs through the pole: the window is every column only while the
    viewport holds the pole or lies within the margin of it."""
    r = {"corner": corner_radius_deg(FOV), "cap": cap_radius_deg(FOV), "edge": FOV.phi_deg / 2.0}[radius]
    pog = SphericalPoint(theta, r + offset if north else 180.0 - r - offset)
    _, count = assert_window_spans(pog, FOV, res)
    holds_pole = exact_membership(CartesianVector(0.0, 0.0, 1.0 if north else -1.0), pog, FOV)
    assert holds_pole == (radius == "edge" and offset < 0.0)
    near_pole = math.sin(math.radians(pole_gap_deg(pog, FOV))) <= pole_margin(FOV, res)
    assert near_pole == (radius == "edge" and offset < 1e-3)
    assert (count == res.n_h) == (holds_pole or near_pole)


@pytest.mark.parametrize("res", [RES, Resolution(3840, 1920)])
@pytest.mark.parametrize("phi", [62.0, 90.0, 118.0])
@pytest.mark.parametrize("where", [0.0, 1e-9, 0.5, 0.999, -0.5, -1e-9])
def test_window_across_the_seam(res, phi, where):
    """PoGs within the corner hull's half-width of theta = 0 (where > 0)
    and of theta = 360 (where < 0), as a share of that half-width."""
    half = corner_hull_half_width_deg(SphericalPoint(0.0, phi), FOV)
    theta = where * half if where >= 0.0 else 360.0 + where * half
    start, count = assert_window_spans(SphericalPoint(theta, phi), FOV, res)
    assert count < res.n_h
    assert start + count > res.n_h


@pytest.mark.parametrize(
    "fov, pog",
    [
        ((100.0, 85.0), (0.0, 70.0)),
        ((100.0, 85.0), (10.0, 60.0)),
        ((100.0, 85.0), (200.0, 65.0)),
        ((150.0, 120.0), (0.0, 85.0)),
        ((150.0, 120.0), (123.0, 80.0)),
        ((150.0, 120.0), (200.0, 95.0)),
    ],
)
def test_window_covers_every_column_of_a_narrow_frame(fov, pog):
    """No viewport comes within 17 degrees of a pole here, but the padded
    window reaches all four columns."""
    fov = FieldOfView(*fov)
    assert pole_gap_deg(SphericalPoint(*pog), fov) > 17.0
    assert assert_window_spans(SphericalPoint(*pog), fov, Resolution(4, 2))[1] == 4


@given(
    fov=st.tuples(st.floats(min_value=1.0, max_value=170.0), st.floats(min_value=1.0, max_value=150.0)),
    anchor=st.sampled_from(["corner", "edge", "anywhere"]),
    offset=st.floats(min_value=-1e-9, max_value=1e-9),
    phi=st.floats(min_value=0.0, max_value=180.0),
    north=st.booleans(),
    theta=st.one_of(
        st.floats(min_value=0.0, max_value=360.0, exclude_max=True), st.floats(min_value=-1.0, max_value=1.0)
    ),
    n_v=st.integers(min_value=2, max_value=120),
)
@example(fov=(170.0, 150.0), anchor="corner", offset=1e-9, phi=0.0, north=True, theta=0.0, n_v=2)
@example(fov=(170.0, 150.0), anchor="corner", offset=-1e-9, phi=0.0, north=False, theta=359.9, n_v=240)
@example(fov=(170.0, 150.0), anchor="edge", offset=1e-9, phi=0.0, north=True, theta=0.1, n_v=60)
@example(fov=(100.0, 85.0), anchor="corner", offset=0.0, phi=0.0, north=False, theta=-0.5, n_v=120)
@example(fov=(30.0, 10.0), anchor="anywhere", offset=0.0, phi=90.0, north=True, theta=-0.01, n_v=120)
def test_corner_hull_window_holds_every_oracle_column(fov, anchor, offset, phi, north, theta, n_v):
    """The window holds every column the oracle fills, near the corner
    radius and near v/2 at both poles, across the seam, on frames down to
    four columns.  It is every column when the viewport holds a pole or
    lies within the margin of one; else it is at most the corner hull
    padded by one column."""
    fov, res = FieldOfView(*fov), Resolution(2 * n_v, n_v)
    if anchor != "anywhere":
        r = corner_radius_deg(fov) if anchor == "corner" else fov.phi_deg / 2.0
        phi = r + offset if north else 180.0 - r - offset
    pog = SphericalPoint(theta, phi)
    _, count = assert_window_spans(pog, fov, res)
    if math.sin(math.radians(pole_gap_deg(pog, fov))) <= pole_margin(fov, res):
        assert count == res.n_h
    else:
        # The hull's columns plus one on each side; the last term covers
        # the hull's rounding.
        assert count <= 2.0 * corner_hull_half_width_deg(pog, fov) / res.column_pitch_deg + 3.0 + 1e-6


@pytest.mark.parametrize("n_h", [4, 8, 16])
def test_window_of_a_narrow_viewport_on_a_narrow_frame(n_h):
    _, count = assert_window_spans(SphericalPoint(100.0, 90.0), FieldOfView(10.0, 10.0), Resolution(n_h, n_h // 2))
    assert count < n_h


def index_clip_tile_sums(top, bot, grid):
    """Reference tile sums: each tile-row edge clamped into each column's
    span [top, bot + 1] as a row index into the sin(phi) prefix sums, the
    differences over the edges, then summed per tile column."""
    rows = np.clip(grid.row_edges().astype(np.int32)[:, None], top, bot + 1)
    weights = np.diff(sin_prefix(grid.resolution)[rows], axis=0)
    return np.add.reduceat(weights, grid.col_edges()[:-1], axis=1)


@given(
    theta=st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
    phi=st.floats(min_value=0.0, max_value=180.0),
    fov_theta=FOV_ANGLES,
    fov_phi=FOV_ANGLES,
    n_v=st.integers(min_value=2, max_value=240),
    tiles=st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=16)),
)
@example(theta=320.0, phi=110.0, fov_theta=100.0, fov_phi=85.0, n_v=480, tiles=(5, 8))
@example(theta=123.0, phi=180.0, fov_theta=100.0, fov_phi=85.0, n_v=5, tiles=(5, 1))
@with_window_path_examples(tiles=(5, 8))
def test_tile_sums_equal_the_index_clip_form(theta, phi, fov_theta, fov_phi, n_v, tiles):
    """Against the index-clip form of the kernel's spans and of the
    per-face reference spans."""
    res = Resolution(2 * n_v, n_v)
    grid = TileGrid(min(tiles[0], n_v), min(tiles[1], res.n_h), res)
    pog, fov = SphericalPoint(theta, phi), FieldOfView(fov_theta, fov_phi)
    start, rows, _ = spans_at(pog, fov, res)
    top, bot = full_width_spans(start, rows, res)
    sums = tile_sums(start, rows, grid)
    assert_bitwise_equal(sums, index_clip_tile_sums(top, bot, grid))
    assert_bitwise_equal(sums, index_clip_tile_sums(*per_face_spans(pog, fov, res), grid))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n_v=st.integers(min_value=2, max_value=64))
def test_tile_sums_of_any_spans_equal_the_index_clip_form(seed, n_v):
    """Spans drawn at random, empty ones with any top > bot included: on
    every column, and on a cyclic run of columns with every other column
    empty."""
    rng = np.random.default_rng(seed)
    res = Resolution(2 * n_v, n_v)
    grid = TileGrid(int(rng.integers(1, n_v + 1)), int(rng.integers(1, res.n_h + 1)), res)
    top = rng.integers(0, n_v + 1, res.n_h).astype(np.int32)
    bot = rng.integers(-1, n_v, res.n_h).astype(np.int32)
    every_column = np.stack((top, bot)).astype(np.intp)
    assert_bitwise_equal(tile_sums(0, every_column, grid), index_clip_tile_sums(top, bot, grid))
    start, count = int(rng.integers(0, res.n_h)), int(rng.integers(1, res.n_h + 1))
    run = (start + np.arange(count)) % res.n_h
    outside = np.ones(res.n_h, dtype=bool)
    outside[run] = False
    top[outside], bot[outside] = n_v, -1
    assert_bitwise_equal(tile_sums(start, every_column[:, run], grid), index_clip_tile_sums(top, bot, grid))


@pytest.mark.parametrize("case", WINDOW_PATH_CASES)
def test_window_path_cases_take_their_path(case):
    theta, phi, fov_theta, fov_phi, n_v = WINDOW_PATH_CASES[case]
    pog, fov, res = SphericalPoint(theta, phi), FieldOfView(fov_theta, fov_phi), Resolution(2 * n_v, n_v)
    start, rows, near = spans_at(pog, fov, res)
    top_faces, bottom_faces, steep = face_groups(pog, fov)
    first, weights = _tile_row_weights(start, rows, TileGrid(5, 8, res))
    box = first, len(weights)
    assert (near.size > 0) == (case == "column end taken again")
    assert (start + rows.shape[1] > res.n_h) == (case == "window across the seam")
    if case == "top end at the frame edge":
        assert top_faces == steep == 0 and rows[0].tolist() == [0] * res.n_h
    elif case == "bottom end at the frame edge":
        assert bottom_faces == steep == 0 and rows[1].tolist() == [n_v - 1] * res.n_h
    elif case == "per-face form, top face plane through the north pole":
        assert top_faces == 0 and steep == 1
    elif case == "per-face form, steep side faces":
        assert steep == 2
    elif case == "box of one tile row":
        assert box == (2, 1)
    elif case == "box of five tile rows":
        assert box == (0, 5)
    # The per-face form serves exactly the PoGs with a steep face.
    assert gaze_at(pog, fov, res).steep == (steep > 0)
    # Every tile row with weight lies in the box.
    expected = index_clip_tile_sums(*per_face_spans(pog, fov, res), TileGrid(5, 8, res))
    filled = np.flatnonzero(expected.any(axis=1))
    assert filled.min() >= box[0] and filled.max() < box[0] + box[1]


# ---------------------------------------------------------------------------
# projected masks
# ---------------------------------------------------------------------------


def test_center_mask_symmetry():
    support = project_viewport(SphericalPoint(180.0, 90.0), FOV, RES).weights > 0.0
    assert np.array_equal(support, support[:, ::-1])
    assert np.array_equal(support, support[::-1, :])


def test_weights_are_row_sines_on_support():
    for build in (project_viewport, exact_mask):
        mask = build(SphericalPoint(250.0, 70.0), FOV, RES)
        support = mask.weights > 0.0
        expected = (support * np.sin(np.deg2rad(row_centers_deg(RES)))[:, None]).astype(np.float32)
        assert_bitwise_equal(mask.weights, expected)
        assert mask.weights.max() <= 1.0
        assert mask.area == float(expected.sum(dtype=np.float64))


def test_wraparound_column_shift_is_exact():
    base = project_viewport(SphericalPoint(320.0, 110.0), FOV, RES)
    shift_cols = 240
    shifted_pog = SphericalPoint(320.0 + shift_cols * RES.column_pitch_deg, 110.0)
    shifted = project_viewport(shifted_pog, FOV, RES)
    assert np.array_equal(shifted.weights, np.roll(base.weights, shift_cols, axis=1))


def test_two_component_wraparound_mask():
    """A PoG near the seam splits the raster into two components."""
    mask = project_viewport(SphericalPoint(320.0, 110.0), FOV, RES)
    support = mask.weights > 0.0
    assert support[:, 0].any() and support[:, -1].any()
    assert component_count(support) == 2


def test_pole_mask_covers_full_top_rows():
    """A viewport containing the north pole fills whole top raster rows."""
    mask = project_viewport(SphericalPoint(180.0, 30.0), FOV, RES)
    support = mask.weights > 0.0
    assert support[0, :].all()
    assert component_count(support) == 1
    north = spherical_to_cartesian(SphericalPoint(0.0, 0.0))
    assert exact_membership(north, SphericalPoint(180.0, 30.0), FOV)


def test_pole_mask_matches_exact_at_high_sampling():
    raster = project_viewport(SphericalPoint(180.0, 30.0), FOV, RES, samples_per_side=1024)
    oracle = exact_mask(SphericalPoint(180.0, 30.0), FOV, RES)
    assert np.array_equal(raster.weights > 0.0, oracle.weights > 0.0)


@pytest.mark.parametrize("theta", [47.74, 200.0])
def test_boundary_sample_on_a_pole_keeps_to_the_viewport(theta):
    """With the top (bottom) face plane through the north (south) pole, a
    boundary sample rotates onto the pole and its azimuth is rounding
    residue.  The mask stays as close to the oracle as at phi +- 0.1."""
    res = Resolution(3840, 1920)

    def mismatch(phi):
        pog = SphericalPoint(theta, phi)
        rows = mask_module._polyline_spans(pog, FOV, res, 4)
        return np.count_nonzero(spans_to_raster(0, rows, res) != _membership_raster(pog, FOV, res))

    for phi in (FOV.phi_deg / 2.0, 180.0 - FOV.phi_deg / 2.0):
        assert mismatch(phi) <= max(mismatch(phi - 0.1), mismatch(phi + 0.1)) + 2


def test_jaccard_convergence_and_area_constancy():
    res = Resolution(1920, 960)
    rng = np.random.default_rng(41)
    pogs = random_pogs(rng, 20)
    oracles = [exact_mask(pog, FOV, res) for pog in pogs]
    means = []
    for samples in (4, 8, 16, 32, 64):
        masks = [project_viewport(pog, FOV, res, samples) for pog in pogs]
        means.append(np.mean([jaccard_index(m, o) for m, o in zip(masks, oracles)]))
    assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
    assert means[-1] >= 0.995

    areas = np.array([exact.area for exact in oracles])
    assert areas.std() / areas.mean() < 0.01
    closed_form = equivalent_pixels_viewport(res, FOV)
    assert np.all(np.abs(areas - closed_form) / closed_form < 0.02)


def test_low_sampling_still_fills_viewport():
    rng = np.random.default_rng(43)
    for pog in random_pogs(rng, 4):
        coarse = project_viewport(pog, FOV, RES, samples_per_side=1)
        assert coarse.area > 0.0
        assert jaccard_index(coarse, exact_mask(pog, FOV, RES)) >= 0.85


def test_exact_area_rotation_invariant_on_equator():
    areas = [exact_mask(SphericalPoint(t, 90.0), FOV, RES).area for t in range(0, 360, 60)]
    assert (max(areas) - min(areas)) / np.mean(areas) < 1e-3


def test_project_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        project_viewport(SphericalPoint(180.0, 90.0), FOV, RES, samples_per_side=0)


# ---------------------------------------------------------------------------
# bank centers
# ---------------------------------------------------------------------------


def test_bank_centers_grid():
    centers = bank_centers(3, 6)
    assert len(centers) == 18
    assert sorted({c.phi_deg for c in centers}) == [30.0, 90.0, 150.0]
    assert sorted({c.theta_deg for c in centers}) == [30.0, 90.0, 150.0, 210.0, 270.0, 330.0]
    assert centers[0].theta_deg == 30.0 and centers[0].phi_deg == 30.0
    assert len(bank_centers(10, 20)) == 200
    # Bitwise the cell centers of the row-major rule, at any grid.
    for rows, cols in ((1, 1), (5, 10), (7, 13), (20, 40)):
        expected = [((j + 0.5) * (360.0 / cols), (i + 0.5) * (180.0 / rows)) for i in range(rows) for j in range(cols)]
        assert [(c.theta_deg, c.phi_deg) for c in bank_centers(rows, cols)] == expected


def test_nearest_center_matches_haversine_oracle():
    rng = np.random.default_rng(47)
    for rows, cols in ((3, 6), (5, 10)):
        centers = bank_centers(rows, cols)
        for pog in random_pogs(rng, 60):
            assert nearest_center_index(centers, pog) == haversine_nearest(centers, pog)


def test_nearest_center_examples():
    centers = bank_centers(3, 6)
    chosen = centers[nearest_center_index(centers, SphericalPoint(181.0, 91.0))]
    assert (chosen.theta_deg, chosen.phi_deg) == (210.0, 90.0)
    # equidistant between (150, 90) and (210, 90): lowest row-major index wins
    tie = nearest_center_index(centers, SphericalPoint(180.0, 90.0))
    assert (centers[tie].theta_deg, centers[tie].phi_deg) == (150.0, 90.0)
    d_left = angular_distance_deg(centers[tie], SphericalPoint(180.0, 90.0))
    d_right = angular_distance_deg(SphericalPoint(210.0, 90.0), SphericalPoint(180.0, 90.0))
    assert d_left == pytest.approx(d_right, abs=1e-12)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_pgm_export(tmp_path):
    mask = project_viewport(SphericalPoint(200.0, 80.0), FOV, RES)
    path = tmp_path / "mask.pgm"
    write_mask_pgm(mask, str(path))
    payload = path.read_bytes()
    header = f"P5\n{RES.n_h} {RES.n_v}\n255\n".encode("ascii")
    assert payload.startswith(header)
    pixels = np.frombuffer(payload[len(header):], dtype=np.uint8).reshape(RES.n_v, RES.n_h)
    expected = np.rint(mask.weights * 255.0).astype(np.uint8)
    assert np.array_equal(pixels, expected)


def test_npz_round_trip(tmp_path):
    mask = project_viewport(SphericalPoint(320.0, 110.0), FOV, RES)
    path = tmp_path / "mask.npz"
    write_mask_npz(mask, str(path))
    with np.load(path) as loaded:
        assert sorted(loaded.files) == ["fov", "pog", "resolution", "weights"]
        assert np.array_equal(loaded["weights"], mask.weights)
        assert loaded["weights"].dtype == np.float32
        assert loaded["pog"].tolist() == [mask.pog.theta_deg, mask.pog.phi_deg]
        assert loaded["fov"].tolist() == [FOV.theta_deg, FOV.phi_deg]
        assert loaded["resolution"].tolist() == [RES.n_h, RES.n_v]
        assert float(np.sum(loaded["weights"], dtype=np.float64)) == mask.area
