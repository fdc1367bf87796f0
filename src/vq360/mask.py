"""Projected-viewport masks on equirectangular frames.

The viewport is the spherical rectangle cut on the viewing sphere by a
right rectangular pyramid (apex at the sphere center, apex angles given
by the field of view).  Its four sides are great-circle arcs on the
planes of the pyramid's faces.  The pyramid is described once:
``_base_face_normals`` holds the inward face normals and the forward
direction of the base viewport (centered at theta=180, phi=90), and
``_face_normals`` rotates them to the point of gaze (PoG).  The
boundary sampler, the membership oracle and the span kernel read them.

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
for the rasterized path.  The session engine does not rasterize: it
takes each column's row span analytically from the five face half-spaces
(``_project_spans``), which selects exactly the oracle's pixels.  What
does not depend on the columns is set up once for all the PoGs of a
trace (``_gazes``): the rotated face normals, the coefficients of the
faces that bound one column end, and the column window.  A viewport that
holds no pole spans, in azimuth, only the hull of its four corners'
azimuths, less than 180 degrees wide.  So unless a pole lies inside the
viewport or within a tiny margin of it, where the oracle's tolerance
could carry an accepted direction half a column past the hull, only the
hull's columns, padded by one column, can hold a viewport pixel
(``_column_windows``); spans are taken on that run of columns, which may
cross the seam, and every other column is empty.  A face that is not
near-vertical bounds only one end of a column, set by the sign of its
normal's z; when no face of the PoG is near-vertical, at each end the
binding face is the one with the least cot(phi) crossing, so a column
end costs one arctan, mapped straight to row units.  A PoG with a
near-vertical face takes every end in the per-face atan2 form, as do
column ends that land near a row center; both forms are rounded in one
place.

Both mask builders hand out spans in one form: the first column of a
cyclic run of columns and the (2, count) intp rows holding each run
column's top and bottom row, empty when top > bot.  The polyline
rasterizer's run is every column from column 0, so ``project_viewport``
compares each pixel row against those rows as they are.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    CartesianVector,
    FieldOfView,
    Resolution,
    SphericalPoint,
    cartesian_to_spherical_arrays,
    column_centers_deg,
    row_centers_deg,
    spherical_to_cartesian_arrays,
)

DEFAULT_SAMPLES_PER_SIDE = 64
BOUNDARY_EPS = 1e-12
# Faces with |n_z| at or below this take the per-face span formula.  Above
# it, R >= |n_z| keeps a face's tolerance asin(BOUNDARY_EPS / R) below
# _TILTED_SLACK, which _project_spans may leave out.
_STEEP_NZ = 1e-4
_TILTED_SLACK = 2.0 * BOUNDARY_EPS / _STEEP_NZ
# Added to the tolerance's reach that pads the column window: far above the
# rounding of the window's own arithmetic and of the oracle's face values.
_WINDOW_SLACK = 1e-9
# The window columns of a span call that takes no column end again.
_NO_COLUMNS = np.empty(0, dtype=np.intp)
_NO_COLUMNS.setflags(write=False)
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


@dataclass(frozen=True)
class ViewportMask:
    """Weighted raster of the projected viewport.

    ``weights`` is a dense float32 raster, zero outside the viewport and
    sin(phi_row) inside.
    ``area`` is the equivalent-pixel sum of weights.
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


@lru_cache(maxsize=32)
def _base_face_normals(fov: FieldOfView) -> np.ndarray:
    """Inward normals of the four pyramid faces plus the forward direction.

    A direction v is inside the base viewport iff v . n >= 0 for all rows.
    The array is cached per field of view and read-only.
    """
    half_t = math.radians(fov.theta_deg / 2.0)
    half_p = math.radians(fov.phi_deg / 2.0)
    sin_t, cos_t = math.sin(half_t), math.cos(half_t)
    sin_p, cos_p = math.sin(half_p), math.cos(half_p)
    normals = np.array(
        [
            [0.0, -sin_p, -cos_p],  # top
            [0.0, -sin_p, cos_p],  # bottom
            [-cos_t, -sin_t, 0.0],  # left
            [cos_t, -sin_t, 0.0],  # right
            [0.0, -1.0, 0.0],  # forward hemisphere
        ],
        dtype=np.float64,
    )
    normals.setflags(write=False)
    return normals


def _pog_rotations(theta_deg, phi_deg) -> np.ndarray:
    """Rotations taking the base frame to each PoG's frame, in closed form,
    shape (PoGs, 3, 3) for arrays of angles and (3, 3) for one PoG's.

    Each is the product Rz(theta - 180) Rx(phi) of a tilt about -x by
    90 - phi, which lowers the base center (0, -1, 0) to polar angle phi,
    and a turn about +z adding theta - 180 to every azimuth.  Each entry
    of that product is one product of a sine or cosine plus exact zeros,
    so it is written as that product.  Adding 0.0 turns a -0 product into
    the +0 that the matrix product returns.  Every entry is elementwise,
    so a PoG's rotation does not depend on the other PoGs.
    """
    # The turn theta - 180 and the tilt psi = 90 - phi, in radians.
    angles = np.radians(np.stack((theta_deg - 180.0, 90.0 - phi_deg)))
    (ct, c), (st, s) = np.cos(angles), np.sin(angles)
    rotations = np.zeros(np.shape(ct) + (3, 3))
    rotations[..., 0, 0], rotations[..., 0, 1], rotations[..., 0, 2] = ct, st * c, st * s + 0.0
    rotations[..., 1, 0], rotations[..., 1, 1], rotations[..., 1, 2] = 0.0 - st, ct * c, ct * s + 0.0
    rotations[..., 2, 1], rotations[..., 2, 2] = 0.0 - s, c
    return rotations


def _face_normals(theta_deg, phi_deg, fov: FieldOfView) -> np.ndarray:
    """Face normals rotated from the base frame to each PoG's frame, shape
    (PoGs, 5, 3) for arrays of angles and (5, 3) for one PoG's: one matrix
    product per PoG, as for a PoG alone."""
    return np.matmul(_base_face_normals(fov), _pog_rotations(theta_deg, phi_deg).swapaxes(-1, -2))


def exact_membership(pixel_dir: CartesianVector, pog: SphericalPoint, fov: FieldOfView) -> bool:
    """True iff a direction lies inside the viewing pyramid (boundary inclusive).

    Membership is the conjunction of the four face half-space tests and
    the forward-hemisphere test, n.v >= -BOUNDARY_EPS for each row n of
    _face_normals, the normals _membership_raster and
    _project_spans read.
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


def _pole_clearances(nz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sines of lower bounds on the angles from the north and south poles
    to the exact viewport: the greatest -n_z and the greatest n_z over the
    faces (last axis of nz).

    A pole outside face n's half-space lies asin(-+n_z) from the face
    plane, and the viewport lies inside every face's half-space.  The
    oracle holds the north (south) pole iff its value is at most
    BOUNDARY_EPS: a face normal's dot product with (0, 0, +-1) is +-n_z.
    """
    return np.maximum.reduce(-nz, axis=-1), np.maximum.reduce(nz, axis=-1)


def _pole_containment(pog: SphericalPoint, fov: FieldOfView) -> tuple[bool, bool]:
    """exact_membership of the north and south poles (_pole_clearances)."""
    north, south = _pole_clearances(_face_normals(pog.theta_deg, pog.phi_deg, fov)[:, 2])
    return bool(north <= BOUNDARY_EPS), bool(south <= BOUNDARY_EPS)


# ---------------------------------------------------------------------------
# analytic spans
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _column_trig(res: Resolution) -> np.ndarray:
    """Rows sin(theta) and cos(theta) of the pixel-column azimuths, shape (2, n_h), read-only."""
    theta = np.deg2rad(column_centers_deg(res))
    trig = np.stack([np.sin(theta), np.cos(theta)])
    trig.setflags(write=False)
    return trig


@lru_cache(maxsize=8)
def _row_trig(res: Resolution) -> np.ndarray:
    """Rows sin(phi) and cos(phi) of the pixel-row polar angles, shape (2, n_v),
    read-only: the one source of the rows' sin(phi) weights."""
    trig = np.stack([np.sin(np.deg2rad(row_centers_deg(res))), np.cos(np.deg2rad(row_centers_deg(res)))])
    trig.setflags(write=False)
    return trig


def _tolerance_reach(fov: FieldOfView) -> float:
    """Angle from the exact viewport within which every direction the
    oracle accepts lies.

    Take a direction v with components x and z along the pyramid's
    horizontal and vertical axes and a along its axis.  It passes the
    four side faces only if |x| <= a tan(h/2) + E and |z| <= a tan(v/2) +
    E, E = BOUNDARY_EPS / min(cos(h/2), cos(v/2)), and the forward face
    only if a >= -BOUNDARY_EPS.  A non-positive a would then leave
    |v|^2 <= 3 E^2 < 1, so a > 0, and clamping x and z to the exact bounds
    gives a direction p of the exact pyramid with |v - p| <= sqrt(2) E:
    the angle from v to p is at most asin(sqrt(2) E).  _WINDOW_SLACK
    covers the rounding of the oracle's face values and of the column
    window's own arithmetic.
    """
    half_h = math.radians(fov.theta_deg / 2.0)
    half_v = math.radians(fov.phi_deg / 2.0)
    spread = math.sqrt(2.0) * BOUNDARY_EPS / min(math.cos(half_h), math.cos(half_v))
    return math.asin(min(1.0, spread)) + _WINDOW_SLACK


def _column_windows(
    theta_deg: np.ndarray, phi_deg: np.ndarray, nz: np.ndarray, fov: FieldOfView, res: Resolution
) -> tuple[np.ndarray, np.ndarray]:
    """First column and column count, per PoG, of a cyclic run that holds
    every column with a viewport pixel; nz holds each PoG's face normals'
    z components.

    A convex cone that holds neither pole projects to an azimuth wedge
    narrower than 180 degrees, and the wedge's edges are the projections
    of the cone's edges: the exact viewport's azimuths lie in the hull of
    its four corner azimuths.  The corners of the base pyramid are
    (+-tan(h/2), -1, +-tan(v/2)); the tilt to polar angle phi puts them at
    atan2(tan(h/2), sin(phi) -+ cos(phi) tan(v/2)) to either side of the
    PoG's azimuth theta, so the hull is theta +- atan2(tan(h/2), sin(phi)
    - |cos(phi)| tan(v/2)).

    The oracle also accepts directions within rho = _tolerance_reach(fov)
    of the viewport.  A point at polar angle phi' has every direction
    within rho of it inside asin(sin(rho) / sin(phi')) of its azimuth.
    Every viewport point lies at least asin of the north clearance from
    the north pole and asin of the south one from the south pole
    (_pole_clearances), so sin(phi') >= s, the lesser clearance.  So while
    s > sin(rho) / sin(p / 2), p the column pitch, accepted directions
    stay within half a column of the hull, and the run takes the columns
    whose centers lie in the hull, padded by one column on each side.
    The other half column covers the rounding of the hull: the margin
    keeps sin(phi) - |cos(phi)| tan(v/2), which is the clearance of the
    top (bottom) face over cos(v/2), above 1e-9 / sin(p / 2), so the
    rounding moves the hull by less than 1e-7 of a column.  The run may
    cross the seam.  Otherwise, with a pole inside the viewport or within
    that margin of it, or when the padded hull reaches every column, the
    run is every column.
    """
    pitch = res.column_pitch_deg
    margin = math.sin(_tolerance_reach(fov)) / math.sin(math.radians(pitch) / 2.0)
    phi = np.radians(phi_deg)
    spread = math.tan(math.radians(fov.theta_deg / 2.0))
    rise = np.sin(phi) - np.abs(np.cos(phi)) * math.tan(math.radians(fov.phi_deg / 2.0))
    half = np.degrees(np.arctan2(spread, rise))
    first = np.ceil((theta_deg - half) / pitch - 0.5) - 1.0
    count = np.floor((theta_deg + half) / pitch - 0.5) + 2.0 - first
    full = (np.minimum(*_pole_clearances(nz)) <= margin) | (count >= res.n_h)
    return np.where(full, 0, first % res.n_h).astype(np.intp), np.where(full, res.n_h, count).astype(np.intp)


class _Gaze(NamedTuple):
    """What _project_spans reads of one PoG, set up by _gazes.

    ``normals`` are its world face normals (_face_normals).  ``steep`` is
    whether any face has |n_z| <= _STEEP_NZ, which puts every span end in
    the per-face form.  Else ``coeffs`` holds -(n_x, n_y) / n_z of its
    faces, the n_top top-end faces (n_z < 0) first and then the bottom-end
    ones (n_z > 0), each in face order.  ``start`` and ``count`` are its
    column window (_column_windows).
    """

    theta_deg: float
    phi_deg: float
    normals: np.ndarray
    coeffs: np.ndarray
    n_top: int
    steep: bool
    start: int
    count: int


def _gazes(theta_deg: np.ndarray, phi_deg: np.ndarray, fov: FieldOfView, res: Resolution):
    """The _Gaze of each PoG, in order: set up for all PoGs at once and
    handed out one at a time.  Every PoG's values are its own elementwise
    results and its own matrix product, so they do not depend on the
    other PoGs."""
    normals = _face_normals(theta_deg, phi_deg, fov)
    nz = normals[..., 2]
    steep = np.abs(nz) <= _STEEP_NZ
    coeffs = np.zeros(normals.shape[:2] + (2,))
    np.divide(-normals[..., :2], normals[..., 2:], out=coeffs, where=~steep[..., None])
    # Each PoG's faces in a stable sort, top-end faces first.
    bottom = nz > 0.0
    order = np.argsort(bottom, axis=1, kind="stable")
    coeffs = coeffs[np.arange(len(order))[:, None], order]
    n_top = np.add.reduce(~bottom, axis=1).tolist()
    start, count = _column_windows(theta_deg, phi_deg, nz, fov, res)
    steep, start, count = steep.any(axis=1).tolist(), start.tolist(), count.tolist()
    return map(_Gaze, theta_deg.tolist(), phi_deg.tolist(), normals, coeffs, n_top, steep, start, count)


def _face_intervals(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column [lo, hi] allowed by a set of faces, one face at a time.

    Along the column at azimuth theta a direction is
    v(phi) = (sin(phi) sin(theta), sin(phi) cos(theta), cos(phi)), so the
    face test n.v >= -BOUNDARY_EPS reads A sin(phi) + B cos(phi) =
    R sin(phi + delta) >= -BOUNDARY_EPS with A = n_x sin(theta) +
    n_y cos(theta), B = n_z, R = hypot(A, B) and delta = atan2(B, A).  On
    [0, pi] that is the interval [-delta - w, pi - delta + w] with
    w = asin(BOUNDARY_EPS / R), the oracle's tolerance; a face with
    R <= BOUNDARY_EPS passes the whole column.  a holds A per face and
    column, b holds B per face as a column.
    """
    delta = np.arctan2(b, a)
    w = a * a
    w += b * b
    np.sqrt(w, out=w)
    passes = w <= BOUNDARY_EPS
    np.maximum(w, BOUNDARY_EPS, out=w)
    np.divide(BOUNDARY_EPS, w, out=w)
    np.arcsin(w, out=w)
    w[passes] = np.inf
    lo = -(delta + w).min(axis=0)
    hi = math.pi - np.subtract(delta, w, out=delta).max(axis=0)
    return lo, hi


def _per_face_ends(normals: np.ndarray, columns: np.ndarray, res: Resolution) -> np.ndarray:
    """Top and bottom ends of the given frame columns from all five faces
    (_face_intervals), shape (2, columns): clamped to [0, pi] and in row
    units, row k's center at (k + 0.5) pi / n_v, not rounded."""
    # A is taken from the product of all five faces and all columns: BLAS
    # need not round a subset's products alike.
    a = normals[:, :2] @ _column_trig(res)
    lo, hi = _face_intervals(a[:, columns], normals[:, 2:])
    ends = np.stack((np.maximum(lo, 0.0, out=lo), np.minimum(hi, math.pi, out=hi)))
    ends /= math.pi / res.n_v
    ends -= 0.5
    return ends


def _project_spans(gaze: _Gaze, res: Resolution) -> tuple[int, np.ndarray, np.ndarray]:
    """Per-column row spans [top, bot] of the exact viewport at one PoG,
    analytically, on the columns of its window.

    Each face test n.v >= -BOUNDARY_EPS allows, along a column, the
    interval of polar angles that _face_intervals derives; intersecting
    the five and rounding to row centers gives exactly the pixel centers
    _membership_raster accepts.  This computes the same spans with less
    work, and only on the columns of the PoG's window (_column_windows):
    every other column is empty.  Column ends take one of two forms.

    Binding face, when no face is steep (|n_z| <= _STEEP_NZ): a face then
    bounds only one end of the column inside [0, pi], the top if n_z < 0,
    at polar angle pi/2 - atan(c) - w, and the bottom if n_z > 0, at
    pi/2 + atan(c) + w, with c = (n_x sin(theta) + n_y cos(theta)) / |n_z|,
    that is cot(phi) on the face plane, and w = asin(BOUNDARY_EPS / R),
    R >= |n_z|.  Since atan is increasing, at each end the face with the
    least c binds up to its w, so pi/2 -/+ atan(min c) lies within max w
    < _TILTED_SLACK / 2 of the exact end: one arctan per column end, from
    one product of _Gaze.coeffs with the window's sines and cosines.  An
    end that no face bounds is the frame edge, as the viewport then holds
    that pole, with no arctan.

    Per face, at a PoG with a steep face: every end of the window comes
    from all five faces (_per_face_ends).  The side and forward faces at
    an equator PoG have n_z = 0, and a face plane through a pole has |n_z|
    ~ 1e-16, so c is unbounded there and w reaches pi/2.

    Both forms give an end as row x, row k's center lying at polar angle
    (k + 0.5) pi / n_v, and are rounded in one place: the top row is
    ceil(x) and the bottom row floor(x).  A binding-face end rounds as the
    exact end does unless a row center lies within _TILTED_SLACK of it,
    |x - rint(x)| <= _TILTED_SLACK n_v / pi; the few ulps by which x
    differs from the exact expression are far inside that slack.  Such
    column ends (a boundary through a row center, or any float tie) are
    taken again per face.  Per-face ends are tested alike, though exact.

    The one set a single interval cannot hold is a column within about
    BOUNDARY_EPS / sin(row pitch / 2) of a face plane on its outer side,
    whose tolerance band then touches pixels at both poles; the span
    keeps one end.

    Returns the window's first column start, the intp rows of shape
    (2, count) whose row 0 is each window column's top and row 1 its
    bottom, window column i being column (start + i) mod n_h, and the
    window columns with an end within _TILTED_SLACK of a row center,
    ascending.  Every top lies in [0, n_v] and every bottom in
    [-1, n_v - 1]; a column is empty when top > bot.
    """
    start, count = gaze.start, gaze.count
    scale = res.n_v / math.pi
    if gaze.steep:
        ends = bounded = _per_face_ends(gaze.normals, (start + np.arange(count)) % res.n_h, res)
    else:
        trig = _column_trig(res)
        wrapped = start + count - res.n_h
        trig = trig[:, start : start + count] if wrapped <= 0 else np.hstack((trig[:, start:], trig[:, :wrapped]))
        # Row 0 of ends is the least c of the top-end faces, row 1 the
        # greatest -c of the bottom-end ones; ends first to last - 1 are
        # bounded, the others frame edges half a row past the edge row.
        n_top = gaze.n_top
        first, last = (0 if n_top else 1), (2 if n_top < len(gaze.coeffs) else 1)
        c = gaze.coeffs @ trig
        ends = np.empty((2, count))
        if first == 0:
            np.minimum.reduce(c[:n_top], axis=0, out=ends[0])
        else:
            ends[0] = -0.5
        if last == 2:
            np.maximum.reduce(c[n_top:], axis=0, out=ends[1])
        else:
            ends[1] = res.n_v - 0.5
        bounded = ends[first:last]
        np.arctan(bounded, out=bounded)
        bounded *= -scale
        bounded += res.n_v / 2 - 0.5
    gap = np.rint(bounded)
    np.subtract(bounded, gap, out=gap)
    np.abs(gap, out=gap)
    near = _NO_COLUMNS
    if gap.min() <= _TILTED_SLACK * scale:
        near = np.flatnonzero((gap <= _TILTED_SLACK * scale).any(axis=0))
        if not gaze.steep:
            ends[:, near] = _per_face_ends(gaze.normals, (start + near) % res.n_h, res)
    np.ceil(ends[0], out=ends[0])
    np.floor(ends[1], out=ends[1])
    return start, ends.astype(np.intp), near


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


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
