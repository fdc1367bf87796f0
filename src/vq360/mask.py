"""Projected-viewport masks on equirectangular frames: the paper's dense
raster path.

The viewport is the spherical rectangle cut on the viewing sphere by the
viewing pyramid whose face normals :mod:`vq360.spans` describes once
(``_base_face_normals``, rotated to the point of gaze, PoG, by
``_face_normals``).  The boundary sampler and the membership oracle here
read those normals, as the engine's span kernel does.

A mask is built in three steps: sample the boundary of the base
viewport, rotate the samples to the PoG, then rasterize the closed
polyline on the pixel grid and fill the interior, weighting each pixel
row by sin(phi) to compensate the uneven spherical sampling of the
equirectangular mapping.  Each side of the base boundary is a function
of one parameter (azimuth on the top and bottom arcs, polar angle on
the left and right meridians), and ``_side_points`` is the one evaluator
of it: ``_base_polyline`` calls it for the uniform samples, and the pole
subdivision for the midpoints it inserts.

Masks may wrap around the theta=0/360 seam (splitting into two raster
components) and may contain a pole, in which case every column's span
extends to the corresponding frame edge.  An exact per-pixel membership
test against the face half-spaces serves as the independent oracle
for the rasterized path and for the engine's analytic spans
(``spans._project_spans``).

The polyline rasterizer hands out spans in the span kernel's form: the
first column of a cyclic run of columns and the (2, count) intp rows
holding each run column's top and bottom row, empty when top > bot.  Its
run is every column from column 0, so ``project_viewport`` compares each
pixel row against those rows as they are.

Nothing here is on the path of ``evaluate`` or ``study``: the package
loads this module on first use of one of its names.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .geometry import (
    CartesianVector,
    FieldOfView,
    Resolution,
    SphericalPoint,
    cartesian_to_spherical_arrays,
    spherical_to_cartesian_arrays,
)
from .pooling import _atomic_write_bytes
from .spans import (
    BOUNDARY_EPS,
    _base_face_normals,
    _column_trig,
    _face_normals,
    _pog_rotations,
    _pole_clearances,
    _row_trig,
)

DEFAULT_SAMPLES_PER_SIDE = 64
# The projection stretches azimuth spans by ~1/sin(phi), so straight chords
# between rotated boundary samples under-resolve pole-adjacent stretches of
# the boundary.  Segments whose azimuth span exceeds both the per-sample cap
# (SUBDIVISION_REF_DEG / samples_per_side) and SUBDIVISION_STRETCH times
# their true arc length get true boundary points inserted before span
# filling; un-stretched segments are left alone so samples_per_side remains
# the accuracy knob away from the poles.
SUBDIVISION_REF_DEG = 64.0
SUBDIVISION_STRETCH = 1.8
MAX_SUBDIVISION_PASSES = 32
MIN_SUBDIVISION_PARAM_DEG = 1e-5
# Rotated boundary samples this close to a pole have no azimuth of their own.
_POLE_VERTEX_DEG = 1e-9
# Rows per block of the membership oracle: a block's float64 values at
# 3840 columns (480 KB) stay in cache.
_ORACLE_BLOCK_ROWS = 16

_SIDE_TOP = 0
_SIDE_RIGHT = 1
_SIDE_BOTTOM = 2
_SIDE_LEFT = 3


@dataclass(frozen=True, eq=False)
class ViewportMask:
    """Weighted raster of the projected viewport.

    ``weights`` is a dense float32 raster, zero outside the viewport and
    sin(phi_row) inside.
    ``area`` is the equivalent-pixel sum of weights.
    Masks compare by identity.
    """

    resolution: Resolution
    weights: np.ndarray
    pog: SphericalPoint
    fov: FieldOfView
    area: float


# ---------------------------------------------------------------------------
# base viewport boundary
# ---------------------------------------------------------------------------


def corner_colatitudes_deg(fov: FieldOfView) -> tuple[float, float]:
    """Polar angles of the base viewport's top and bottom corners.

    The corner is the intersection of adjacent pyramid face planes; its
    elevation above the equator is arctan(tan(phi_vp/2) * cos(theta_vp/2)).
    """
    half_t = math.radians(fov.theta_deg / 2.0)
    half_p = math.radians(fov.phi_deg / 2.0)
    elev = math.degrees(math.atan(math.tan(half_p) * math.cos(half_t)))
    return 90.0 - elev, 90.0 + elev


def arc_phi_deg(normal: Sequence[float], theta_deg: float) -> float:
    """Polar angle, in [0, 180], at a given azimuth of the great circle
    on the plane with this normal.

    On the plane n.v = 0, tan(phi) = -n_z / (n_x sin(theta) + n_y
    cos(theta)).  The two-argument arctangent resolves the tangent's
    sign, and the half-turn period folds the result into the valid polar
    range, so the normal's sign and length do not matter (the equator
    degenerate case n_x = n_y = 0 lands on 90).
    """
    nx, ny, nz = normal
    t = math.radians(theta_deg)
    phi = math.degrees(math.atan2(-nz, nx * math.sin(t) + ny * math.cos(t)))
    if phi < 0.0:
        phi += 180.0
    return phi


@lru_cache(maxsize=32)
def _base_polyline(fov_theta: float, fov_phi: float, samples_per_side: int):
    """Closed base-frame polyline with per-vertex side id and side parameter.

    The sides run top (A to B), right (B to D), bottom (D to C) and left
    (C to A), each from its first corner through ``samples_per_side``
    uniformly spaced interior parameters to its last corner.  Corner
    vertices are thus duplicated so that every segment lies on a single
    side (the duplicate pairs form zero-length segments the rasterizer
    skips).  Returns (theta, phi, side, param) float64/int8 arrays, cached
    per field of view and sample count and read-only.
    """
    if samples_per_side < 1:
        raise ValueError(f"samples_per_side must be >= 1, got {samples_per_side}")
    fov = FieldOfView(fov_theta, fov_phi)
    theta_left, theta_right = 180.0 - fov_theta / 2.0, 180.0 + fov_theta / 2.0
    phi_top, phi_bottom = corner_colatitudes_deg(fov)
    first = np.array([[theta_left], [phi_top], [theta_right], [phi_bottom]])
    last = np.array([[theta_right], [phi_bottom], [theta_left], [phi_top]])
    interior = np.linspace(0.0, 1.0, samples_per_side + 2)[1:-1]
    param = np.hstack([first, first + interior * (last - first), last]).ravel()
    side = np.repeat(np.array([_SIDE_TOP, _SIDE_RIGHT, _SIDE_BOTTOM, _SIDE_LEFT], dtype=np.int8), samples_per_side + 2)
    theta, phi = _side_points(fov, side, param)
    # The arc formula misses the corner colatitudes by about an ulp.
    corners = phi.reshape(4, -1)
    corners[:, 0] = [phi_top, phi_top, phi_bottom, phi_bottom]
    corners[:, -1] = [phi_top, phi_bottom, phi_bottom, phi_top]
    for array in (theta, phi, side, param):
        array.setflags(write=False)
    return theta, phi, side, param


def _side_points(fov: FieldOfView, side_ids: np.ndarray, params: np.ndarray):
    """Base-frame boundary points for (side, parameter) pairs.

    The left and right sides are meridians parametrized by polar angle;
    the top and bottom sides are arcs of the great circles cut by the top
    and bottom pyramid faces (rows 0 and 1 of _base_face_normals),
    parametrized by azimuth.
    """
    theta_left, theta_right = 180.0 - fov.theta_deg / 2.0, 180.0 + fov.theta_deg / 2.0
    top, bottom = _base_face_normals(fov)[:2].tolist()
    arcs = {_SIDE_TOP: top, _SIDE_BOTTOM: bottom}
    meridians = {_SIDE_RIGHT: theta_right, _SIDE_LEFT: theta_left}
    theta = np.empty_like(params)
    phi = np.empty_like(params)
    for i, (s, par) in enumerate(zip(side_ids, params)):
        if s in arcs:
            theta[i], phi[i] = par, arc_phi_deg(arcs[s], par)
        else:
            theta[i], phi[i] = meridians[s], par
    return theta, phi


# ---------------------------------------------------------------------------
# exact membership oracle
# ---------------------------------------------------------------------------


def exact_membership(pixel_dir: CartesianVector, pog: SphericalPoint, fov: FieldOfView) -> bool:
    """True iff a direction lies inside the viewing pyramid (boundary inclusive).

    Membership is the conjunction of the face half-space tests, n.v >=
    -BOUNDARY_EPS for each row n of _face_normals, the normals
    _membership_raster and _project_spans read: the four side faces, which
    imply the forward-hemisphere test but at a degenerate field of view,
    where that test is a fifth row.
    """
    return bool(np.all(_face_normals(pog.theta_deg, pog.phi_deg, fov) @ pixel_dir.as_array() >= -BOUNDARY_EPS))


def _membership_raster(pog: SphericalPoint, fov: FieldOfView, res: Resolution) -> np.ndarray:
    """Boolean raster of per-pixel-center membership, vectorized.

    Pixel (row, column) passes face n iff sin(phi) (n_x sin(theta) +
    n_y cos(theta)) + n_z cos(phi) >= -BOUNDARY_EPS.  The test runs over
    blocks of _ORACLE_BLOCK_ROWS rows in reused buffers; every pixel's
    value is the same product and sum as in one whole-raster evaluation.
    """
    normals = _face_normals(pog.theta_deg, pog.phi_deg, fov)
    sin_t, cos_t = _column_trig(res)
    sin_p, cos_p = _row_trig(res)
    azimuthal = normals[:, :1] * sin_t + normals[:, 1:2] * cos_t
    polar = normals[:, 2:] * cos_p
    inside = np.ones((res.n_v, res.n_h), dtype=bool)
    value = np.empty((_ORACLE_BLOCK_ROWS, res.n_h))
    passes = np.empty((_ORACLE_BLOCK_ROWS, res.n_h), dtype=bool)
    for start in range(0, res.n_v, _ORACLE_BLOCK_ROWS):
        stop = min(start + _ORACLE_BLOCK_ROWS, res.n_v)
        block, block_value, block_passes = inside[start:stop], value[: stop - start], passes[: stop - start]
        for face_azimuthal, face_polar in zip(azimuthal, polar):
            np.multiply(sin_p[start:stop, None], face_azimuthal, out=block_value)
            block_value += face_polar[start:stop, None]
            np.greater_equal(block_value, -BOUNDARY_EPS, out=block_passes)
            block &= block_passes
    return inside


def _pole_containment(pog: SphericalPoint, fov: FieldOfView) -> tuple[bool, bool]:
    """exact_membership of the north and south poles (_pole_clearances)."""
    north, south = _pole_clearances(_face_normals(pog.theta_deg, pog.phi_deg, fov)[:, 2])
    return bool(north <= BOUNDARY_EPS), bool(south <= BOUNDARY_EPS)


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------


def _short_way_deg(delta: np.ndarray) -> np.ndarray:
    """Wrap azimuth differences to [-180, 180)."""
    return (delta + 180.0) % 360.0 - 180.0


def _on_pole(phi: np.ndarray) -> np.ndarray:
    return (phi < _POLE_VERTEX_DEG) | (phi > 180.0 - _POLE_VERTEX_DEG)


def _split_pole_vertices(theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replace each vertex within _POLE_VERTEX_DEG of a pole by two vertices
    at that pole, with the azimuths of its neighbours before and after it
    on the closed polyline.

    A boundary sample that rotates onto a pole has rounding residue for an
    azimuth, so its chords would sweep columns outside the viewport.  The
    split turns them into meridian chords, which cross no column, and one
    chord along the pole's edge row; _pole_containment extends the spans
    to that edge.  Only base samples with x = 0, the centers of the top
    and bottom arcs, can rotate onto a pole, so no two pole vertices are
    neighbours.
    """
    at = np.flatnonzero(_on_pole(phi))
    if not at.size:
        return theta, phi
    before, after = theta[at - 1], theta[(at + 1) % theta.size]
    first = at + np.arange(at.size)
    copies = np.ones(theta.size, dtype=np.intp)
    copies[at] = 2
    theta = np.repeat(theta, copies)
    phi = np.repeat(phi, copies)
    theta[first], theta[first + 1] = before, after
    phi[first] = phi[first + 1] = np.where(phi[first] < 90.0, 0.0, 180.0)
    return theta, phi


def _subdivided_polyline(pog: SphericalPoint, fov: FieldOfView, samples_per_side: int):
    """Rotated boundary polyline with pole-stretched segments refined.

    A segment is bisected (inserting the true boundary point at the
    midpoint of its base-frame side parameter) while its rotated azimuth
    span exceeds both the cap SUBDIVISION_REF_DEG / samples_per_side and
    SUBDIVISION_STRETCH times its arc length; arc length is
    rotation-invariant, so un-stretched segments keep the sampling
    density chosen by samples_per_side.  A segment with an end on a pole
    counts as stretched, and the refined polyline's pole vertices are
    split by _split_pole_vertices.  Samples are rotated by _pog_rotations.
    """
    theta_b, phi_b, side, param = _base_polyline(fov.theta_deg, fov.phi_deg, samples_per_side)
    gap_cap_deg = SUBDIVISION_REF_DEG / samples_per_side
    rotation = _pog_rotations(pog.theta_deg, pog.phi_deg).T
    xyz_b = np.stack(spherical_to_cartesian_arrays(theta_b, phi_b), axis=-1)
    theta, phi = cartesian_to_spherical_arrays(*(xyz_b @ rotation).T)
    for _ in range(MAX_SUBDIVISION_PASSES):
        gaps = np.abs(_short_way_deg(np.diff(theta)))
        # A vertex on a pole has no azimuth of its own to measure a gap by;
        # refining its segments gives _split_pole_vertices neighbours on
        # the boundary's own meridians.
        pole = _on_pole(phi)
        gaps[pole[:-1] | pole[1:]] = np.inf
        arcs = np.rad2deg(np.arccos(np.clip(np.sum(xyz_b[:-1] * xyz_b[1:], axis=1), -1.0, 1.0)))
        same_side = side[:-1] == side[1:]
        wide_param = np.abs(param[1:] - param[:-1]) > MIN_SUBDIVISION_PARAM_DEG
        split = (gaps > gap_cap_deg) & (gaps > SUBDIVISION_STRETCH * arcs) & same_side & wide_param
        if not split.any():
            break
        idx = np.nonzero(split)[0]
        mid_param = 0.5 * (param[idx] + param[idx + 1])
        mid_side = side[idx]
        mid_theta_b, mid_phi_b = _side_points(fov, mid_side, mid_param)
        mid_xyz_b = np.stack(spherical_to_cartesian_arrays(mid_theta_b, mid_phi_b), axis=-1)
        mid_theta, mid_phi = cartesian_to_spherical_arrays(*(mid_xyz_b @ rotation).T)
        theta = np.insert(theta, idx + 1, mid_theta)
        phi = np.insert(phi, idx + 1, mid_phi)
        side = np.insert(side, idx + 1, mid_side)
        param = np.insert(param, idx + 1, mid_param)
        xyz_b = np.insert(xyz_b, idx + 1, mid_xyz_b, axis=0)
    return _split_pole_vertices(theta, phi)


def _column_spans(
    theta: np.ndarray,
    phi: np.ndarray,
    res: Resolution,
    north_inside: bool,
    south_inside: bool,
) -> np.ndarray:
    """Per-column row spans [top, bot] of the filled polyline interior,
    in the form _project_spans gives on a window from column 0 that holds
    every column: intp rows of shape (2, n_h), row 0 each column's top and
    row 1 its bottom, which project_viewport compares pixel rows against
    as they are.  A column is empty when top > bot; one that no segment
    crosses has top = n_v and bot = -1.  Columns wrap modulo n_h; if a
    pole is inside the viewport the spans extend to the corresponding
    frame edge.
    """
    col_pitch = res.column_pitch_deg
    row_pitch = res.row_pitch_deg

    theta_closed = np.append(theta, theta[0])
    phi_closed = np.append(phi, phi[0])
    a = theta_closed[:-1]
    dt = _short_way_deg(theta_closed[1:] - theta_closed[:-1])
    dp = phi_closed[1:] - phi_closed[:-1]
    moving = dt != 0.0
    a, dt, dp, pa = a[moving], dt[moving], dp[moving], phi_closed[:-1][moving]

    lo = np.minimum(a, a + dt)
    hi = np.maximum(a, a + dt)
    c_first = np.ceil(lo / col_pitch - 0.5).astype(np.int64)
    c_last = np.floor(hi / col_pitch - 0.5).astype(np.int64)
    counts = np.maximum(c_last - c_first + 1, 0)

    seg_idx = np.repeat(np.arange(a.size), counts)
    within = np.arange(counts.sum()) - np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    cols_unwrapped = c_first[seg_idx] + within
    x = (cols_unwrapped + 0.5) * col_pitch
    t = np.clip((x - a[seg_idx]) / dt[seg_idx], 0.0, 1.0)
    phi_cross = pa[seg_idx] + t * dp[seg_idx]
    cols = cols_unwrapped % res.n_h

    min_phi = np.full(res.n_h, np.inf)
    max_phi = np.full(res.n_h, -np.inf)
    np.minimum.at(min_phi, cols, phi_cross)
    np.maximum.at(max_phi, cols, phi_cross)
    crossed = np.isfinite(min_phi)

    rows = np.empty((2, res.n_h), dtype=np.intp)
    rows[0], rows[1] = res.n_v, -1
    rows[0, crossed] = 0 if north_inside else np.ceil(min_phi[crossed] / row_pitch - 0.5)
    rows[1, crossed] = res.n_v - 1 if south_inside else np.floor(max_phi[crossed] / row_pitch - 0.5)
    return rows


def _polyline_spans(
    pog: SphericalPoint,
    fov: FieldOfView,
    res: Resolution,
    samples_per_side: int,
) -> np.ndarray:
    """Column spans of the sampled boundary polyline (the paper's
    rasterizer), as _column_spans gives them."""
    theta, phi = _subdivided_polyline(pog, fov, samples_per_side)
    north, south = _pole_containment(pog, fov)
    return _column_spans(theta, phi, res, north, south)


def _weighted_mask(inside: np.ndarray, pog: SphericalPoint, fov: FieldOfView, res: Resolution) -> ViewportMask:
    sin_rows = _row_trig(res)[0, :, None]
    weights = np.where(inside, sin_rows.astype(np.float32), np.float32(0.0))
    area = float(np.sum(weights, dtype=np.float64))
    return ViewportMask(resolution=res, weights=weights, pog=pog, fov=fov, area=area)


def project_viewport(
    pog: SphericalPoint,
    fov: FieldOfView,
    res: Resolution,
    samples_per_side: int = DEFAULT_SAMPLES_PER_SIDE,
) -> ViewportMask:
    """Rasterized viewport mask for an arbitrary point of gaze.

    Parameters
    ----------
    pog : SphericalPoint
        Point of gaze (viewport center).
    fov : FieldOfView
        Horizontal and vertical apex angles.
    res : Resolution
        Frame size in pixels.
    samples_per_side : int
        Boundary samples per viewport side (accuracy knob).

    Returns
    -------
    ViewportMask
        Dense sin(phi)-weighted raster; may wrap around the horizontal
        seam and extends to the frame edge when a pole is inside.
    """
    top, bot = _polyline_spans(pog, fov, res, samples_per_side)
    pixel_rows = np.arange(res.n_v)[:, None]
    return _weighted_mask((pixel_rows >= top) & (pixel_rows <= bot), pog, fov, res)


def exact_mask(pog: SphericalPoint, fov: FieldOfView, res: Resolution) -> ViewportMask:
    """Oracle mask: per-pixel-center membership against the viewing pyramid."""
    return _weighted_mask(_membership_raster(pog, fov, res), pog, fov, res)


def jaccard_index(a: ViewportMask, b: ViewportMask) -> float:
    """Jaccard index of two masks' supports (pixel sets, unweighted)."""
    sa = a.weights > 0.0
    sb = b.weights > 0.0
    union = np.count_nonzero(sa | sb)
    if union == 0:
        return 1.0
    return np.count_nonzero(sa & sb) / union


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def write_mask_pgm(mask: ViewportMask, path: str) -> None:
    """Export weights as an 8-bit binary PGM (values scaled by 255)."""
    levels = np.rint(np.clip(mask.weights, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{mask.resolution.n_h} {mask.resolution.n_v}\n255\n".encode("ascii")
    _atomic_write_bytes(path, header + levels.tobytes())


def write_mask_npz(mask: ViewportMask, path: str) -> None:
    """Export the mask losslessly (compressed raster plus metadata)."""
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        weights=mask.weights,
        pog=np.array([mask.pog.theta_deg, mask.pog.phi_deg]),
        fov=np.array([mask.fov.theta_deg, mask.fov.phi_deg]),
        resolution=np.array([mask.resolution.n_h, mask.resolution.n_v]),
    )
    _atomic_write_bytes(path, buffer.getvalue())
