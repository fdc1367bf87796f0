"""Tests for tile grids, variant layouts, HQ footprints and grade maps."""

import json

import numpy as np
import pytest

from vq360.geometry import Resolution
from vq360.grade import (
    GradeMap,
    TileGrid,
    VariantLayout,
    _hq_table,
    binary_grade_map,
    load_footprint_json,
    variant_layout_26,
)

from reference import tile_slices

RES = Resolution(960, 480)


def neighbor_footprint_oracle(grid, tiles):
    """Brute-force 8-neighborhood with theta wraparound and row clamping."""
    out = set()
    for r, c in tiles:
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr = r + dr
                if 0 <= rr < grid.rows:
                    out.add((rr, (c + dc) % grid.cols))
    return frozenset(out)


def hq_tiles(layout, variant, footprint):
    """The HQ tiles of one variant: its row of the footprint table, as a set."""
    return frozenset(map(tuple, np.argwhere(_hq_table(layout, footprint)[variant]).tolist()))


def area_of_tile(layout, tile):
    """Index of the area listing the tile, read from the layout's areas."""
    return next(index for index, area in enumerate(layout.areas) if tile in area)


# ---------------------------------------------------------------------------
# tile grid
# ---------------------------------------------------------------------------


def test_tile_grid_uniform_edges():
    grid = TileGrid(5, 8, RES)
    assert np.array_equal(grid.row_edges(), [0, 96, 192, 288, 384, 480])
    assert np.array_equal(grid.col_edges(), [0, 120, 240, 360, 480, 600, 720, 840, 960])


def test_tile_grid_remainder_goes_to_last():
    grid = TileGrid(3, 7, Resolution(100, 50))
    assert np.array_equal(grid.row_edges(), [0, 16, 32, 50])
    assert np.array_equal(grid.col_edges(), [0, 14, 28, 42, 56, 70, 84, 100])


def test_tile_slices_partition_frame():
    grid = TileGrid(3, 7, Resolution(100, 50))
    covered = np.zeros((50, 100), dtype=int)
    for tr in range(grid.rows):
        for tc in range(grid.cols):
            rows, cols = tile_slices(grid, tr, tc)
            covered[rows, cols] += 1
    assert np.array_equal(covered, np.ones_like(covered))


def test_tile_of_pixel_matches_slices():
    """At every pixel, with and without remainder pixels: the tile whose
    edges hold it, which is also floor division by the tile size, clamped
    to the last tile."""
    for tiles, size in (((3, 7), (100, 50)), ((5, 8), (962, 481)), ((5, 8), (966, 483)), ((4, 6), (960, 480))):
        res = Resolution(*size)
        grid = TileGrid(*tiles, res)
        expected_rows = np.empty((res.n_v, res.n_h), dtype=int)
        expected_cols = np.empty((res.n_v, res.n_h), dtype=int)
        for tr in range(grid.rows):
            for tc in range(grid.cols):
                rows, cols = tile_slices(grid, tr, tc)
                expected_rows[rows, cols] = tr
                expected_cols[rows, cols] = tc
        pixel_row, pixel_col = np.indices((res.n_v, res.n_h))
        tile_row, tile_col = grid.tiles_of_pixels(pixel_row, pixel_col)
        assert np.array_equal(tile_row, expected_rows)
        assert np.array_equal(tile_col, expected_cols)
        assert np.array_equal(tile_row, np.minimum(pixel_row // (res.n_v // grid.rows), grid.rows - 1))
        assert np.array_equal(tile_col, np.minimum(pixel_col // (res.n_h // grid.cols), grid.cols - 1))


def test_tile_grid_validation():
    with pytest.raises(ValueError):
        TileGrid(0, 8, RES)
    with pytest.raises(ValueError):
        TileGrid(481, 8, RES)
    grid = TileGrid(2, 2, RES)
    with pytest.raises(ValueError):
        tile_slices(grid, 2, 0)


# ---------------------------------------------------------------------------
# variant layout
# ---------------------------------------------------------------------------


def test_variant_layout_26_structure():
    layout = variant_layout_26(RES)
    assert layout.variant_count == 26
    assert layout.areas[0] == tuple((0, c) for c in range(8))
    assert layout.areas[25] == tuple((4, c) for c in range(8))
    for r in range(1, 4):
        for c in range(8):
            index = 1 + (r - 1) * 8 + c
            assert layout.areas[index] == ((r, c),)
            assert area_of_tile(layout, (r, c)) == index


def test_variant_layout_26_area_containing():
    layout = variant_layout_26(RES)
    areas = layout._areas_at(np.array([180.0, 0.0, 0.0]), np.array([90.0, 0.0, 180.0]))
    assert areas.tolist() == [13, 0, 25]


def test_variant_layout_26_rejects_small_frames():
    with pytest.raises(ValueError):
        variant_layout_26(Resolution(8, 4))


def test_variant_layout_rejects_bad_partitions():
    grid = TileGrid(2, 2, RES)
    with pytest.raises(ValueError):
        VariantLayout(grid, (((0, 0), (0, 1)), ((0, 1), (1, 0), (1, 1))))
    with pytest.raises(ValueError):
        VariantLayout(grid, (((0, 0),), ((0, 1),), ((1, 0),)))
    with pytest.raises(ValueError):
        VariantLayout(grid, (((0, 0), (0, 1), (1, 0), (2, 0)),))


# ---------------------------------------------------------------------------
# high-quality footprints
# ---------------------------------------------------------------------------


def test_footprint_area_only():
    layout = variant_layout_26(RES)
    table = _hq_table(layout, "area-only")
    assert table.dtype == bool and table.shape == (26, 5, 8)
    for variant in range(layout.variant_count):
        assert hq_tiles(layout, variant, "area-only") == frozenset(layout.areas[variant])


def test_footprint_neighbors_matches_enumeration_oracle():
    layout = variant_layout_26(RES)
    for variant in range(layout.variant_count):
        expected = neighbor_footprint_oracle(layout.grid, layout.areas[variant])
        assert hq_tiles(layout, variant, "area+neighbors") == expected


def test_footprint_neighbors_wraps_columns():
    layout = variant_layout_26(RES)
    tiles = hq_tiles(layout, area_of_tile(layout, (2, 0)), "area+neighbors")
    assert (2, 7) in tiles and (2, 1) in tiles
    assert (1, 7) in tiles and (3, 7) in tiles


def test_footprint_explicit_mapping():
    layout = variant_layout_26(RES)
    mapping = {v: [(2, 3), (2, 4)] for v in range(layout.variant_count)}
    mapping[5] = [(0, 0), (4, 7), (0, 0)]
    assert hq_tiles(layout, 0, mapping) == frozenset({(2, 3), (2, 4)})
    assert hq_tiles(layout, 5, mapping) == frozenset({(0, 0), (4, 7)})
    # Every variant needs an entry, each a non-empty list of in-grid
    # tiles, and no other variant may have one.
    for bad, message in (
        ({1: [(0, 0)]}, "no entry for variant 0"),
        ({v: tiles for v, tiles in mapping.items() if v != 25}, "no entry for variant 25"),
        ({**mapping, 0: [(9, 0)]}, r"footprint tile \(9,0\) outside 5x8 grid"),
        ({**mapping, 3: [(0, -1)]}, r"footprint tile \(0,-1\) outside 5x8 grid"),
        ({**mapping, 0: []}, "footprint for variant 0 is empty"),
        ({**mapping, 99: [(0, 0)], -1: [(0, 0)]}, "footprint mapping names variant 99, outside 0..25"),
        ({**mapping, -1: [(0, 0)]}, "footprint mapping names variant -1, outside 0..25"),
    ):
        with pytest.raises(ValueError, match=message):
            _hq_table(layout, bad)


def test_footprint_validation():
    layout = variant_layout_26(RES)
    for variant in (26, -1):
        with pytest.raises(ValueError, match="outside 0..25"):
            binary_grade_map(layout, variant, "area-only")
    for spec in ("everything", None, [(0, 0)]):
        with pytest.raises(ValueError, match="unknown footprint spec"):
            _hq_table(layout, spec)


def test_binary_grade_map_marks_exactly_the_footprint():
    layout = variant_layout_26(RES)
    variant = area_of_tile(layout, (2, 0))
    grade = binary_grade_map(layout, variant, "area+neighbors")
    assert set(np.unique(grade.grades)) <= {0.0, 1.0}
    expected = np.zeros((RES.n_v, RES.n_h))
    for tile in neighbor_footprint_oracle(layout.grid, layout.areas[variant]):
        rows, cols = tile_slices(layout.grid, *tile)
        expected[rows, cols] = 1.0
    assert np.array_equal(grade.grades, expected)


@pytest.mark.parametrize("size", [(960, 480), (102, 51), (16, 8)])
def test_binary_grade_map_equals_tile_slices_reference(size):
    """Every variant under every kind of footprint, with remainder pixels in
    the last tile row and column at 102x51: the raster is the table's row
    painted tile by tile through tile_slices."""
    layout = variant_layout_26(Resolution(*size))
    explicit = {v: [(v % 5, (3 * v) % 8), (4 - v % 5, 7)] for v in range(layout.variant_count)}
    for footprint in ("area-only", "area+neighbors", explicit):
        table = _hq_table(layout, footprint)
        for variant in range(layout.variant_count):
            expected = np.zeros((layout.grid.resolution.n_v, layout.grid.resolution.n_h))
            for tile in np.argwhere(table[variant]).tolist():
                rows, cols = tile_slices(layout.grid, *tile)
                expected[rows, cols] = 1.0
            grades = binary_grade_map(layout, variant, footprint).grades
            assert grades.dtype == np.float64 and np.array_equal(grades, expected), (size, footprint, variant)


# ---------------------------------------------------------------------------
# grade maps
# ---------------------------------------------------------------------------


def test_grade_map_validation():
    with pytest.raises(ValueError):
        GradeMap(RES, np.zeros((10, 10)))
    with pytest.raises(ValueError):
        GradeMap(RES, np.full((480, 960), 1.5))
    grade = GradeMap(RES, np.zeros((480, 960)))
    with pytest.raises(ValueError):
        grade.grades[0, 0] = 1.0


def test_grade_map_copies_the_callers_raster():
    raster = np.zeros((480, 960))
    grade = GradeMap(RES, raster)
    raster[0, 0] = 1.0
    assert raster.flags.writeable
    assert grade.grades[0, 0] == 0.0
    assert GradeMap(RES, raster.astype(np.float32)).grades.dtype == np.float64


# ---------------------------------------------------------------------------
# footprint files
# ---------------------------------------------------------------------------


def test_load_footprint_json(tmp_path):
    path = tmp_path / "footprint.json"
    path.write_text(json.dumps({"0": [[0, 0], [0, 1]], "1": [[1, 1]]}))
    footprint = load_footprint_json(str(path))
    assert footprint == {0: ((0, 0), (0, 1)), 1: ((1, 1),)}

    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="expected an object"):
        load_footprint_json(str(path))

    path.write_text(json.dumps({"first": [[0, 0]]}))
    with pytest.raises(ValueError, match="non-integer"):
        load_footprint_json(str(path))

    # Only plain decimal keys: "01", "+1", " 1" and "1_0" would otherwise
    # name variant 1 (or 10) beside a "1" and overwrite it unseen.
    for key, index in (("01", 1), ("+1", 1), (" 1", 1), ("1 ", 1), ("1_0", 10), ("-0", 0)):
        path.write_text(json.dumps({"1": [[1, 1]], key: [[0, 0]]}))
        with pytest.raises(ValueError) as info:
            load_footprint_json(str(path))
        assert str(info.value) == (
            f"{path}: variant key {key!r} is not written as the plain decimal integer {index}"
        ), key
    path.write_text(json.dumps({"0": [[0, 0]], "-1": [[1, 1]], "25": [[2, 2]]}))
    assert load_footprint_json(str(path)) == {0: ((0, 0),), -1: ((1, 1),), 25: ((2, 2),)}

    # Each tile is a [row, col] pair of JSON integers.
    for tiles in ([[1]], [1], 5, [[0, 1, 2]], [[0.0, 1]], [["0", 1]], [[True, 1]], [None]):
        path.write_text(json.dumps({"0": [[0, 0]], "3": tiles}))
        with pytest.raises(ValueError) as info:
            load_footprint_json(str(path))
        assert str(info.value).startswith(f"{path}: variant 3: "), tiles
