"""Grade matrices: per-pixel quality levels of the delivered frame.

A grade map assigns every pixel of the equirectangular frame a quality
level in [0, 1].  For tiled viewport-adaptive delivery the grade is the
variant layout's binary map: one on the tiles a variant delivers in high
quality (its HQ footprint), zero elsewhere.  ``_hq_table`` derives the
HQ flags of every tile and variant; the session engine pools them per
tile, and ``binary_grade_map`` expands a variant's flags to the dense
raster ``pooling.frame_quality`` takes.  The 26-variant layout merges
the top and bottom tile rows of a 5x8 grid into one area each, leaving
the 24 middle tiles as individual areas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import Resolution, spherical_to_pixel_arrays

FOOTPRINT_AREA_ONLY = "area-only"
FOOTPRINT_AREA_NEIGHBORS = "area+neighbors"
FOOTPRINT_RULES = (FOOTPRINT_AREA_ONLY, FOOTPRINT_AREA_NEIGHBORS)


@dataclass(frozen=True)
class TileGrid:
    """Uniform tiling of the frame; remainder pixels go to the last row/col."""

    rows: int
    cols: int
    resolution: Resolution

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"tile grid must be at least 1x1, got {self.rows}x{self.cols}")
        if self.rows > self.resolution.n_v or self.cols > self.resolution.n_h:
            raise ValueError(
                f"{self.rows}x{self.cols} tiles do not fit {self.resolution.n_h}x{self.resolution.n_v} pixels"
            )

    def row_edges(self) -> np.ndarray:
        """Pixel-row boundaries of the tile rows (length rows + 1)."""
        return _uniform_edges(self.resolution.n_v, self.rows)

    def col_edges(self) -> np.ndarray:
        """Pixel-column boundaries of the tile columns (length cols + 1)."""
        return _uniform_edges(self.resolution.n_h, self.cols)

    def tiles_of_pixels(self, pixel_row: np.ndarray, pixel_col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tile rows and columns holding in-frame pixel index arrays: the
        count of inner edges at or before each pixel."""
        tr = np.searchsorted(self.row_edges()[1:-1], pixel_row, side="right")
        tc = np.searchsorted(self.col_edges()[1:-1], pixel_col, side="right")
        return tr, tc


def _uniform_edges(pixels: int, tiles: int) -> np.ndarray:
    """Boundaries of tiles equal pixels // tiles wide, the remainder going
    to the last tile (length tiles + 1)."""
    edges = np.arange(tiles + 1, dtype=np.int64) * (pixels // tiles)
    edges[-1] = pixels
    return edges


@dataclass(frozen=True)
class VariantLayout:
    """Partition of the tile grid into areas, one delivery variant per area."""

    grid: TileGrid
    areas: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        # Tile -> area table; -1 marks a tile no area has claimed yet.
        table = np.full((self.grid.rows, self.grid.cols), -1, dtype=np.int64)
        for index, area in enumerate(self.areas):
            for row, col in area:
                if not (0 <= row < self.grid.rows and 0 <= col < self.grid.cols):
                    raise ValueError(f"tile {(row, col)} outside the grid")
                if table[row, col] >= 0:
                    raise ValueError(f"tile {(row, col)} belongs to more than one area")
                table[row, col] = index
        if (table < 0).any():
            raise ValueError("areas do not cover every tile")
        table.setflags(write=False)
        object.__setattr__(self, "_area_table", table)

    @property
    def variant_count(self) -> int:
        return len(self.areas)

    def _areas_at(self, theta_deg: np.ndarray, phi_deg: np.ndarray) -> np.ndarray:
        """Area under each PoG of angle arrays: the pixel holding the
        direction (spherical_to_pixel_arrays: truncated, clamped to the
        last column and row), then the tile holding that pixel
        (TileGrid.tiles_of_pixels, from the tile edges: remainder pixels
        in the last tile row and column)."""
        col, row = spherical_to_pixel_arrays(theta_deg, phi_deg, self.grid.resolution)
        return self._area_table[self.grid.tiles_of_pixels(row, col)]


@dataclass(frozen=True, eq=False)
class GradeMap:
    """Dense per-pixel quality levels in [0, 1], as a read-only float64 copy.
    Grade maps compare by identity."""

    resolution: Resolution
    grades: np.ndarray

    def __post_init__(self) -> None:
        grades = np.array(self.grades, dtype=np.float64)
        expected = (self.resolution.n_v, self.resolution.n_h)
        if grades.shape != expected:
            raise ValueError(f"grade raster shape {grades.shape} != {expected}")
        if grades.size and (float(grades.min()) < 0.0 or float(grades.max()) > 1.0):
            raise ValueError("grades must lie in [0, 1]")
        grades.setflags(write=False)
        object.__setattr__(self, "grades", grades)


def variant_layout_26(res: Resolution) -> VariantLayout:
    """5x8 tiling with the top and bottom tile rows merged into one area each.

    Area 0 is the whole top stripe, areas 1..24 are the middle tiles in
    row-major order, area 25 is the whole bottom stripe.
    """
    if res.n_h < 8 or res.n_v < 5:
        raise ValueError(f"resolution {res.n_h}x{res.n_v} too small for a 5x8 grid")
    grid = TileGrid(5, 8, res)
    areas: list[tuple[tuple[int, int], ...]] = [tuple((0, c) for c in range(8))]
    for r in range(1, 4):
        for c in range(8):
            areas.append(((r, c),))
    areas.append(tuple((4, c) for c in range(8)))
    return VariantLayout(grid, tuple(areas))


def _hq_table(layout: VariantLayout, hq_footprint) -> np.ndarray:
    """HQ flags of every variant under a footprint rule, as a bool array of
    shape (variants, tile rows, tile cols).

    The rule is "area-only" (just the variant's own tiles),
    "area+neighbors" (plus the 8-neighborhood of each tile, wrapping in
    theta across columns 0/cols-1 and clamped at the top/bottom rows), or
    a mapping from each variant index, and no other key, to a non-empty
    list of in-grid tiles.
    """
    grid = layout.grid
    if hq_footprint in FOOTPRINT_RULES:
        table = layout._area_table == np.arange(layout.variant_count)[:, None, None]
        if hq_footprint == FOOTPRINT_AREA_NEIGHBORS:
            wide = table | np.roll(table, 1, axis=2) | np.roll(table, -1, axis=2)
            table = wide.copy()
            table[:, 1:] |= wide[:, :-1]
            table[:, :-1] |= wide[:, 1:]
        return table
    if not isinstance(hq_footprint, dict):
        raise ValueError(f"unknown footprint spec {hq_footprint!r}")
    table = np.zeros((layout.variant_count, grid.rows, grid.cols), dtype=bool)
    unknown = [key for key in hq_footprint if key not in range(len(table))]
    if unknown:
        raise ValueError(f"footprint mapping names variant {unknown[0]}, outside 0..{len(table) - 1}")
    for variant, flags in enumerate(table):
        try:
            listed = hq_footprint[variant]
        except KeyError:
            raise ValueError(f"footprint mapping has no entry for variant {variant}") from None
        for entry in listed:
            r, c = int(entry[0]), int(entry[1])
            if not (0 <= r < grid.rows and 0 <= c < grid.cols):
                raise ValueError(f"footprint tile ({r},{c}) outside {grid.rows}x{grid.cols} grid")
            flags[r, c] = True
        if not flags.any():
            raise ValueError(f"footprint for variant {variant} is empty")
    return table


def binary_grade_map(layout: VariantLayout, variant_index: int, hq_footprint="area+neighbors") -> GradeMap:
    """All-ones on the variant's high-quality tiles, zero elsewhere."""
    if not (0 <= variant_index < layout.variant_count):
        raise ValueError(f"variant {variant_index} outside 0..{layout.variant_count - 1}")
    grid = layout.grid
    raster = _hq_table(layout, hq_footprint)[variant_index].repeat(np.diff(grid.row_edges()), axis=0)
    return GradeMap(grid.resolution, raster.repeat(np.diff(grid.col_edges()), axis=1))


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


def load_footprint_json(path: str) -> dict[int, tuple[tuple[int, int], ...]]:
    """Explicit HQ footprint: JSON object mapping variant index to a list
    of [row, col] tiles, each a pair of integers.  A key is the plain
    decimal integer (str(int(key)) == key), so no two keys name one variant."""
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected an object mapping variant index to tile lists")
    footprint: dict[int, tuple[tuple[int, int], ...]] = {}
    for key, tiles in raw.items():
        try:
            index = int(key)
        except ValueError as exc:
            raise ValueError(f"{path}: non-integer variant key {key!r}") from exc
        if str(index) != key:
            raise ValueError(f"{path}: variant key {key!r} is not written as the plain decimal integer {index}")
        if not isinstance(tiles, list):
            raise ValueError(f"{path}: variant {key}: expected a list of [row, col] tiles, got {tiles!r}")
        for tile in tiles:
            if not (isinstance(tile, list) and len(tile) == 2 and all(type(v) is int for v in tile)):
                raise ValueError(f"{path}: variant {key}: tile {tile!r} is not a [row, col] pair of integers")
        footprint[index] = tuple((row, col) for row, col in tiles)
    return footprint
