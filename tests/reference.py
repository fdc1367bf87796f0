"""Dense forms of the library's compact ones, for the tests.

The library hands out viewport spans as a cyclic run of columns and
reads tiles from their edges; these expand the spans to every column
and to a raster, and a tile to its pixel slices, as references to check
the compact forms against.
"""

import numpy as np


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


def tile_slices(grid, tile_row, tile_col):
    """Pixel rows and columns of one tile of a TileGrid, as slices."""
    if not (0 <= tile_row < grid.rows and 0 <= tile_col < grid.cols):
        raise ValueError(f"tile ({tile_row},{tile_col}) outside {grid.rows}x{grid.cols} grid")
    r = grid.row_edges()
    c = grid.col_edges()
    return slice(int(r[tile_row]), int(r[tile_row + 1])), slice(int(c[tile_col]), int(c[tile_col + 1]))
