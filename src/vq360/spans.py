"""Per-column row spans of the projected viewport: the engine's geometry kernel.

The viewport is the spherical rectangle cut on the viewing sphere by a
right rectangular pyramid (apex at the sphere center, apex angles given
by the field of view).  Its four sides are great-circle arcs on the
planes of the pyramid's faces.  The pyramid is described once:
``_base_face_normals`` holds the inward normals of the four side faces
of the base viewport (centered at theta=180, phi=90), with the forward
direction as a fifth row only at the degenerate fields of view where the
four do not imply the forward-hemisphere test, and ``_face_normals``
rotates them to the point of gaze (PoG).  The span kernel here and the
boundary sampler and membership oracle of :mod:`vq360.mask` read them.

The session engine does not rasterize: it takes each column's row span
analytically from those face half-spaces (``_project_spans``), which
selects exactly the pixels of the per-pixel membership oracle.  What
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

Spans are handed out in one form, which the polyline rasterizer of
:mod:`vq360.mask` shares: the first column of a cyclic run of columns
and the (2, count) intp rows holding each run column's top and bottom
row, empty when top > bot.

The pixel grid's trigonometric tables (``_column_trig``, ``_row_trig``)
live here too, as the one source of the columns' sines and cosines and
of the rows' sin(phi) weights.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import FieldOfView, Resolution, column_centers_deg, row_centers_deg

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


# ---------------------------------------------------------------------------
# face normals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _base_face_normals(fov: FieldOfView) -> np.ndarray:
    """Inward normals of the four pyramid faces, and of the forward
    hemisphere only where the four do not imply its test.

    A direction v is inside the base viewport iff v . n >= -BOUNDARY_EPS
    for all rows, the oracle's test.  Write a = -v_y, and h and v for the
    two apex angles.  Adding the top and bottom tests gives a >= -E /
    sin(v/2), and adding the left and right ones a >= -E / sin(h/2), E =
    BOUNDARY_EPS.  For a < 0 the same tests give |v_z| <= E / cos(v/2)
    and |v_x| <= E / cos(h/2).  So a direction that passes the four and
    fails the forward test, a >= -E, has a squared length of at most E^2
    (1/cos^2(h/2) + 1/cos^2(v/2) + 1/max(sin(h/2), sin(v/2))^2).  The
    forward row is kept exactly when twice E times the root of that sum,
    the factor 2 covering rounding, reaches 1: an apex angle within about
    2.3e-10 degrees of 180, or both within that of 0.  Else no unit
    direction fails only the forward test, and every reader does 4/5 of
    the face work.  The array is cached per field of view and read-only.
    """
    half_t = math.radians(fov.theta_deg / 2.0)
    half_p = math.radians(fov.phi_deg / 2.0)
    sin_t, cos_t = math.sin(half_t), math.cos(half_t)
    sin_p, cos_p = math.sin(half_p), math.cos(half_p)
    rows = [
        [0.0, -sin_p, -cos_p],  # top
        [0.0, -sin_p, cos_p],  # bottom
        [-cos_t, -sin_t, 0.0],  # left
        [cos_t, -sin_t, 0.0],  # right
    ]
    # A sine of at most 2 E keeps the row by itself, and a zero one would divide.
    spread, sine = 2.0 * BOUNDARY_EPS, max(sin_t, sin_p)
    if sine <= spread or math.hypot(spread / cos_t, spread / cos_p, spread / sine) >= 1.0:
        rows.append([0.0, -1.0, 0.0])  # forward hemisphere
    normals = np.array(rows, dtype=np.float64)
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
    (PoGs, faces, 3) for arrays of angles and (faces, 3) for one PoG's: one
    matrix product per PoG, as for a PoG alone."""
    return np.matmul(_base_face_normals(fov), _pog_rotations(theta_deg, phi_deg).swapaxes(-1, -2))


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
    E, E = BOUNDARY_EPS / min(cos(h/2), cos(v/2)), and the forward test
    only if a >= -BOUNDARY_EPS: that is a face of its own only at a
    degenerate field of view, and else the four side tests imply it
    (_base_face_normals).  A non-positive a would then leave
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
    """Top and bottom ends of the given frame columns from all the faces
    (_face_intervals), shape (2, columns): clamped to [0, pi] and in row
    units, row k's center at (k + 0.5) pi / n_v, not rounded."""
    # A elementwise, as _membership_raster forms it: a column's value does
    # not depend on which other columns are given.
    sin_t, cos_t = _column_trig(res)[:, columns]
    a = normals[:, :1] * sin_t
    a += normals[:, 1:2] * cos_t
    lo, hi = _face_intervals(a, normals[:, 2:])
    ends = np.stack((np.maximum(lo, 0.0, out=lo), np.minimum(hi, math.pi, out=hi)))
    ends /= math.pi / res.n_v
    ends -= 0.5
    return ends


def _project_spans(gaze: _Gaze, res: Resolution) -> tuple[int, np.ndarray, np.ndarray]:
    """Per-column row spans [top, bot] of the exact viewport at one PoG,
    analytically, on the columns of its window.

    Each face test n.v >= -BOUNDARY_EPS allows, along a column, the
    interval of polar angles that _face_intervals derives; intersecting
    them all and rounding to row centers gives exactly the pixel centers
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
    from all the faces (_per_face_ends).  The side faces at an equator PoG
    have n_z = 0, and a face plane through a pole has |n_z| ~ 1e-16, so c
    is unbounded there and w reaches pi/2.

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
