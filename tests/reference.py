"""Dense forms of the library's compact ones, for the tests.

The library hands out viewport spans as a cyclic run of columns, reads
tiles from their edges and certifies most snaps to a bank center with
one dot product, and rotates quaternions one vector component at a
time; these expand the spans to every column and to a raster, a tile to
its pixel slices, sum the rows' sin(phi) weights afresh, snap every PoG
by a dot product with every center and rotate by np.cross, as
references to check the compact forms against.
"""

import numpy as np

from vq360.geometry import row_centers_deg, spherical_to_cartesian_arrays
from vq360.session import _FORWARD_BY_CONVENTION, _QUATERNION_CONVENTIONS

# Dot products of a snap within this of the largest tie.
NEAREST_TIE_DOT = 1e-12


def full_width_spans(start, rows, res):
    """int32 top and bot of every column, shape (n_h,), from the spans of
    a cyclic run of columns from start: columns outside the run, and
    empty ones (top > bot), get top = n_v and bot = -1."""
    top = np.full(res.n_h, res.n_v, dtype=np.int32)
    bot = np.full(res.n_h, -1, dtype=np.int32)
    filled = rows[0] <= rows[1]
    columns = ((start + np.arange(rows.shape[1])) % res.n_h)[filled]
    top[columns] = rows[0, filled]
    bot[columns] = rows[1, filled]
    return top, bot


def spans_to_raster(start, rows, res):
    """Boolean raster of the spans of a cyclic run of columns from start."""
    top, bot = full_width_spans(start, rows, res)
    pixel_rows = np.arange(res.n_v, dtype=np.int32)[:, None]
    return (pixel_rows >= top[None, :]) & (pixel_rows <= bot[None, :])


def sin_prefix(res):
    """Prefix sums of sin(phi) over the pixel rows; S[k] sums rows < k."""
    sines = np.sin(np.deg2rad(row_centers_deg(res)))
    return np.concatenate(([0.0], np.cumsum(sines)))


def tile_slices(grid, tile_row, tile_col):
    """Pixel rows and columns of one tile of a TileGrid, as slices."""
    if not (0 <= tile_row < grid.rows and 0 <= tile_col < grid.cols):
        raise ValueError(f"tile ({tile_row},{tile_col}) outside {grid.rows}x{grid.cols} grid")
    r = grid.row_edges()
    c = grid.col_edges()
    return slice(int(r[tile_row]), int(r[tile_row + 1])), slice(int(c[tile_col]), int(c[tile_col + 1]))


def nearest_centers(centers_xyz, theta_deg, phi_deg):
    """Index of the center, of unit vectors centers_xyz (shape (centers,
    3)), nearest to each PoG: the largest dot product, with dot products
    within NEAREST_TIE_DOT of it tied and a tie going to the lowest index.
    One (PoGs x centers) table, no certificate."""
    directions = np.stack(spherical_to_cartesian_arrays(theta_deg, phi_deg), axis=1)
    dots = directions @ centers_xyz.T
    ties = dots >= dots.max(axis=1, keepdims=True) - NEAREST_TIE_DOT
    return np.argmax(ties, axis=1)


def quaternion_directions(qw, qx, qy, qz, convention):
    """The convention's forward axis rotated by each unit quaternion, in
    the package's frame, with both cross products taken by np.cross."""
    forward = _FORWARD_BY_CONVENTION[convention]
    u = np.stack([qx, qy, qz], axis=1)
    t = 2.0 * np.cross(u, forward[None, :])
    rotated = forward[None, :] + qw[:, None] * t + np.cross(u, t)
    return tuple((rotated @ _QUATERNION_CONVENTIONS[convention]).T)
