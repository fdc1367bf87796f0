"""Grade matrices: per-pixel quality levels of the delivered frame.

A grade map assigns every pixel of the equirectangular frame a quality
level in [0, 1].  For tiled viewport-adaptive delivery the natural
construction is piecewise-constant over a tile grid: binary high/low
quality maps derived from a variant layout, external per-tile metric
values, QP-derived values, or a per-tile PSNR computed from raw luma
frames.  The 26-variant layout merges the top and bottom tile rows of a
5x8 grid into one area each, leaving the 24 middle tiles as individual
areas.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .geometry import Resolution, SphericalPoint, spherical_to_pixel_arrays

FOOTPRINT_AREA_ONLY = "area-only"
FOOTPRINT_AREA_NEIGHBORS = "area+neighbors"
DEFAULT_PSNR_FLOOR_DB = 20.0
DEFAULT_PSNR_CEILING_DB = 50.0
DEFAULT_PEAK_LEVEL = 255.0


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
        base = self.resolution.n_v // self.rows
        edges = np.arange(self.rows + 1, dtype=np.int64) * base
        edges[-1] = self.resolution.n_v
        return edges

    def col_edges(self) -> np.ndarray:
        """Pixel-column boundaries of the tile columns (length cols + 1)."""
        base = self.resolution.n_h // self.cols
        edges = np.arange(self.cols + 1, dtype=np.int64) * base
        edges[-1] = self.resolution.n_h
        return edges

    def tile_slices(self, tile_row: int, tile_col: int) -> tuple[slice, slice]:
        if not (0 <= tile_row < self.rows and 0 <= tile_col < self.cols):
            raise ValueError(f"tile ({tile_row},{tile_col}) outside {self.rows}x{self.cols} grid")
        r = self.row_edges()
        c = self.col_edges()
        return slice(int(r[tile_row]), int(r[tile_row + 1])), slice(int(c[tile_col]), int(c[tile_col + 1]))

    def tiles_of_pixels(self, pixel_row: np.ndarray, pixel_col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tile rows and columns holding in-frame pixel index arrays."""
        tr = np.minimum(pixel_row // (self.resolution.n_v // self.rows), self.rows - 1)
        tc = np.minimum(pixel_col // (self.resolution.n_h // self.cols), self.cols - 1)
        return tr, tc

    def tile_of_pixel(self, pixel_row: int, pixel_col: int) -> tuple[int, int]:
        if not (0 <= pixel_row < self.resolution.n_v and 0 <= pixel_col < self.resolution.n_h):
            raise ValueError(f"pixel ({pixel_row},{pixel_col}) outside frame")
        tr, tc = self.tiles_of_pixels(pixel_row, pixel_col)
        return int(tr), int(tc)


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

    def area_of_tile(self, tile_row: int, tile_col: int) -> int:
        if not (0 <= tile_row < self.grid.rows and 0 <= tile_col < self.grid.cols):
            raise ValueError(f"tile ({tile_row},{tile_col}) outside the grid")
        return int(self._area_table[tile_row, tile_col])

    def area_containing(self, pog: SphericalPoint) -> int:
        """Index of the variant whose area contains the PoG pixel."""
        return int(self._areas_at(np.float64(pog.theta_deg), np.float64(pog.phi_deg)))

    def _areas_at(self, theta_deg: np.ndarray, phi_deg: np.ndarray) -> np.ndarray:
        """Area under each PoG of angle arrays, by the pixel rule of
        spherical_to_pixel and the tile rule of TileGrid.tile_of_pixel."""
        col, row = spherical_to_pixel_arrays(theta_deg, phi_deg, self.grid.resolution)
        return self._area_table[self.grid.tiles_of_pixels(row, col)]


@dataclass(frozen=True)
class GradeMap:
    """Dense per-pixel quality levels in [0, 1]."""

    resolution: Resolution
    grades: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.resolution.n_v, self.resolution.n_h)
        if self.grades.shape != expected:
            raise ValueError(f"grade raster shape {self.grades.shape} != {expected}")
        if self.grades.size and (float(self.grades.min()) < 0.0 or float(self.grades.max()) > 1.0):
            raise ValueError("grades must lie in [0, 1]")
        self.grades.setflags(write=False)


@dataclass(frozen=True)
class PerTileMetrics:
    """Per-tile MSE and PSNR between a reference and a test frame."""

    grid: TileGrid
    mse: np.ndarray
    psnr: np.ndarray


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


def hq_tile_set(layout: VariantLayout, variant_index: int, hq_footprint="area+neighbors") -> frozenset[tuple[int, int]]:
    """Tiles delivered in high quality for a variant under a footprint rule.

    The rule is "area-only" (just the variant's own tiles),
    "area+neighbors" (plus the 8-neighborhood of each tile, wrapping in
    theta across columns 0/cols-1 and clamped at the top/bottom rows), or
    a mapping from variant index to an explicit tile list.
    """
    if not (0 <= variant_index < layout.variant_count):
        raise ValueError(f"variant {variant_index} outside 0..{layout.variant_count - 1}")
    grid = layout.grid
    if hq_footprint == FOOTPRINT_AREA_ONLY:
        return frozenset(layout.areas[variant_index])
    if hq_footprint == FOOTPRINT_AREA_NEIGHBORS:
        tiles: set[tuple[int, int]] = set()
        for r, c in layout.areas[variant_index]:
            for dr in (-1, 0, 1):
                rr = r + dr
                if rr < 0 or rr >= grid.rows:
                    continue
                for dc in (-1, 0, 1):
                    tiles.add((rr, (c + dc) % grid.cols))
        return frozenset(tiles)
    if isinstance(hq_footprint, dict):
        try:
            listed = hq_footprint[variant_index]
        except KeyError:
            raise ValueError(f"footprint mapping has no entry for variant {variant_index}") from None
        tiles = set()
        for entry in listed:
            r, c = int(entry[0]), int(entry[1])
            if not (0 <= r < grid.rows and 0 <= c < grid.cols):
                raise ValueError(f"footprint tile ({r},{c}) outside {grid.rows}x{grid.cols} grid")
            tiles.add((r, c))
        if not tiles:
            raise ValueError(f"footprint for variant {variant_index} is empty")
        return frozenset(tiles)
    raise ValueError(f"unknown footprint spec {hq_footprint!r}")


def binary_grade_map(layout: VariantLayout, variant_index: int, hq_footprint="area+neighbors") -> GradeMap:
    """All-ones on the variant's high-quality tiles, zero elsewhere."""
    raster = np.zeros((layout.grid.resolution.n_v, layout.grid.resolution.n_h))
    for tile_row, tile_col in hq_tile_set(layout, variant_index, hq_footprint):
        rows, cols = layout.grid.tile_slices(tile_row, tile_col)
        raster[rows, cols] = 1.0
    return GradeMap(layout.grid.resolution, raster)


def _tile_value_array(grid: TileGrid, values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size != grid.rows * grid.cols:
        raise ValueError(f"expected {grid.rows * grid.cols} {name} values, got {arr.size}")
    return arr.reshape(grid.rows, grid.cols)


def grade_from_tile_values(grid: TileGrid, values) -> GradeMap:
    """Piecewise-constant grade raster from one value per tile (in [0, 1])."""
    arr = _tile_value_array(grid, values, "tile")
    if arr.size == 0:
        raise ValueError("empty tile-value map")
    if float(arr.min()) < 0.0 or float(arr.max()) > 1.0:
        raise ValueError("tile values must lie in [0, 1]")
    row_counts = np.diff(grid.row_edges())
    col_counts = np.diff(grid.col_edges())
    raster = np.repeat(np.repeat(arr, row_counts, axis=0), col_counts, axis=1)
    return GradeMap(grid.resolution, raster)


def grade_from_qp(grid: TileGrid, qp_values, qp_min: float, qp_max: float) -> GradeMap:
    """Linear antitone map of per-unit QP onto [0, 1] grades.

    The grid may be the encoder's basic-unit layout (e.g. CTUs) rather
    than the delivery tiling; values outside [qp_min, qp_max] clamp.
    """
    if not qp_min < qp_max:
        raise ValueError(f"qp_min must be < qp_max, got {qp_min} >= {qp_max}")
    qp = _tile_value_array(grid, qp_values, "QP")
    if qp.size == 0:
        raise ValueError("empty QP map")
    grades = np.clip((qp_max - qp) / (qp_max - qp_min), 0.0, 1.0)
    return grade_from_tile_values(grid, grades)


def _tile_reduce_sum(values: np.ndarray, grid: TileGrid) -> np.ndarray:
    by_rows = np.add.reduceat(values, grid.row_edges()[:-1], axis=0)
    return np.add.reduceat(by_rows, grid.col_edges()[:-1], axis=1)


def per_tile_psnr(
    reference_luma: np.ndarray,
    test_luma: np.ndarray,
    grid: TileGrid,
    peak: float = DEFAULT_PEAK_LEVEL,
) -> PerTileMetrics:
    """Per-tile MSE and PSNR; identical tiles report PSNR +inf."""
    expected = (grid.resolution.n_v, grid.resolution.n_h)
    if reference_luma.shape != expected or test_luma.shape != expected:
        raise ValueError(
            f"frame shapes {reference_luma.shape} / {test_luma.shape} != {expected}"
        )
    sq = (reference_luma.astype(np.float64) - test_luma.astype(np.float64)) ** 2
    counts = np.outer(np.diff(grid.row_edges()), np.diff(grid.col_edges()))
    mse = _tile_reduce_sum(sq, grid) / counts
    with np.errstate(divide="ignore"):
        psnr = 10.0 * np.log10(peak * peak / mse)
    return PerTileMetrics(grid, mse, psnr)


def grades_from_psnr(
    grid: TileGrid,
    psnr_values,
    floor_db: float = DEFAULT_PSNR_FLOOR_DB,
    ceiling_db: float = DEFAULT_PSNR_CEILING_DB,
) -> GradeMap:
    """Linear map of per-tile PSNR from [floor, ceiling] dB onto [0, 1]."""
    if not floor_db < ceiling_db:
        raise ValueError(f"floor must be < ceiling, got {floor_db} >= {ceiling_db}")
    psnr = _tile_value_array(grid, psnr_values, "PSNR")
    grades = np.clip((psnr - floor_db) / (ceiling_db - floor_db), 0.0, 1.0)
    return grade_from_tile_values(grid, grades)


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


def _load_per_unit_csv(path: str, grid: TileGrid, columns: tuple[str, str, str]) -> dict[int, np.ndarray]:
    row_col, col_col, value_col = columns
    unit = row_col.split("_")[0]
    per_frame: dict[int, np.ndarray] = {}
    filled: dict[int, np.ndarray] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"frame", row_col, col_col, value_col}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(required)}")
        for line, row in enumerate(reader, start=2):
            try:
                frame = int(row["frame"])
                tr = int(row[row_col])
                tc = int(row[col_col])
                value = float(row[value_col])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line}: malformed row") from exc
            if not (0 <= tr < grid.rows and 0 <= tc < grid.cols):
                raise ValueError(f"{path}:{line}: {unit} ({tr},{tc}) outside grid")
            if frame not in per_frame:
                per_frame[frame] = np.zeros((grid.rows, grid.cols))
                filled[frame] = np.zeros((grid.rows, grid.cols), dtype=bool)
            if filled[frame][tr, tc]:
                raise ValueError(f"{path}:{line}: duplicate entry for frame {frame} {unit} ({tr},{tc})")
            per_frame[frame][tr, tc] = value
            filled[frame][tr, tc] = True
    for frame, mask in filled.items():
        if not mask.all():
            missing = np.argwhere(~mask)[0]
            raise ValueError(f"{path}: frame {frame} missing {unit} ({missing[0]},{missing[1]})")
    if not per_frame:
        raise ValueError(f"{path}: no data rows")
    return per_frame


def load_tile_values_csv(path: str, grid: TileGrid) -> dict[int, np.ndarray]:
    """Per-frame tile values from CSV columns frame,tile_row,tile_col,value."""
    return _load_per_unit_csv(path, grid, ("tile_row", "tile_col", "value"))


def load_qp_map_csv(path: str, grid: TileGrid) -> dict[int, np.ndarray]:
    """Per-frame QP values from CSV columns frame,unit_row,unit_col,qp."""
    return _load_per_unit_csv(path, grid, ("unit_row", "unit_col", "qp"))


def load_footprint_json(path: str) -> dict[int, tuple[tuple[int, int], ...]]:
    """Explicit HQ footprint: JSON object mapping variant index to tile lists."""
    with open(path) as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected an object mapping variant index to tile lists")
    footprint: dict[int, tuple[tuple[int, int], ...]] = {}
    for key, tiles in raw.items():
        try:
            index = int(key)
        except ValueError as exc:
            raise ValueError(f"{path}: non-integer variant key {key!r}") from exc
        footprint[index] = tuple((int(t[0]), int(t[1])) for t in tiles)
    return footprint


def read_raw_luma(path: str, res: Resolution, frame_count: int | None = None) -> np.ndarray:
    """Frames from a headerless planar 8-bit luma file, shape (n, n_v, n_h)."""
    data = np.fromfile(path, dtype=np.uint8)
    frame_size = res.n_h * res.n_v
    if frame_count is not None:
        if data.size < frame_count * frame_size:
            raise ValueError(f"{path}: holds {data.size // frame_size} frames, need {frame_count}")
        data = data[: frame_count * frame_size]
    elif data.size == 0 or data.size % frame_size != 0:
        raise ValueError(f"{path}: size {data.size} is not a multiple of {frame_size}")
    return data.reshape(-1, res.n_v, res.n_h)


# horizontal and vertical chroma subsampling factors per colorspace tag
_Y4M_SUBSAMPLING = {"420": (2, 2), "422": (2, 1), "444": (1, 1)}


def read_y4m_luma(path: str) -> tuple[np.ndarray, float, Resolution]:
    """Luma planes, frame rate and resolution from a YUV4MPEG2 stream."""
    with open(path, "rb") as handle:
        data = handle.read()
    newline = data.find(b"\n")
    if newline < 0 or not data.startswith(b"YUV4MPEG2"):
        raise ValueError(f"{path}: not a YUV4MPEG2 stream")
    width = height = 0
    fps = 0.0
    chroma = "420"
    for token in data[:newline].split()[1:]:
        tag, rest = chr(token[0]), token[1:].decode("ascii")
        if tag == "W":
            width = int(rest)
        elif tag == "H":
            height = int(rest)
        elif tag == "F":
            num, den = rest.split(":")
            fps = int(num) / int(den)
        elif tag == "C":
            if rest.startswith("mono"):
                chroma = "mono"
            else:
                chroma = rest[:3]
                if chroma not in _Y4M_SUBSAMPLING:
                    raise ValueError(f"{path}: unsupported colorspace C{rest}")
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: missing W/H in stream header")
    luma_size = width * height
    if chroma == "mono":
        chroma_size = 0
    else:
        sx, sy = _Y4M_SUBSAMPLING[chroma]
        chroma_size = 2 * (width // sx) * (height // sy)
    frames = []
    offset = newline + 1
    while offset < len(data):
        marker = data.find(b"\n", offset)
        if marker < 0 or not data[offset:marker].startswith(b"FRAME"):
            raise ValueError(f"{path}: malformed frame header at byte {offset}")
        start = marker + 1
        end = start + luma_size
        if end + chroma_size > len(data):
            raise ValueError(f"{path}: truncated frame at byte {start}")
        frames.append(np.frombuffer(data, dtype=np.uint8, count=luma_size, offset=start).reshape(height, width))
        offset = end + chroma_size
    if not frames:
        raise ValueError(f"{path}: no frames")
    return np.stack(frames), fps, Resolution(width, height)
