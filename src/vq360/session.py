"""Viewport-adaptive session simulation and evaluation.

A session is a head-movement trace (one point of gaze per frame)
watched through segment-based adaptive delivery: the variant serving
each segment is chosen from the PoG sampled at the segment's first
frame, so within a segment the delivered quality layout is frozen and
head motion accumulates adaptation lag.  Each frame is scored by
pooling the viewport mask at that frame's PoG with the binary grade map
of the active variant, either projecting the exact mask at every frame
(vaqm) or substituting the mask of the nearest center from a bank of
uniformly spaced centers (avaqm).  A config's bank grid is the one
choice between them: none means vaqm.  This module holds the whole bank:
the layout of its centers, the rule that snaps a PoG to the nearest one
and the build of its tile sums.

Because the grade maps are piecewise-constant over the delivery tiles,
per-frame pooling reduces to per-tile sums of mask weights, and the
engine runs in two stages.  Stage 1, :func:`session_geometries`,
depends only on the traces, the field of view, the resolution, the tile
grid and the bank grid: a PoG that repeats the frame before's reuses its
mask, and every other one is projected (vaqm) or snapped to the nearest
center of a bank built once for all traces (avaqm).  Masks are reduced
to rows of per-tile weight sums, and each frame records its row.  Stage 2,
:func:`pool_session`, applies the segment schedule, the HQ footprint and
the normalization: each mask row, multiplied on its own by the HQ flags
and their complements that the config resolves once from its footprint,
gives the HQ and non-HQ sums from which each frame's quality is
gathered.  A study scores its traces under many segment lengths and bank
grids by running stage 1 once per method and bank grid and stage 2 many
times.  No dense raster is ever built; the tests check the engine
against a dense reference built on the per-pixel membership oracle.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .geometry import (
    FieldOfView,
    Resolution,
    SphericalPoint,
    cartesian_to_spherical_arrays,
    equivalent_pixels_viewport,
    spherical_to_cartesian_arrays,
)
from .grade import TileGrid, VariantLayout, _hq_table
from .pooling import (
    DEFAULT_T_Q,
    NORMALIZATION_ANALYTIC,
    NORMALIZATION_MASK_AREA,
    QualityTimeline,
    _atomic_write_bytes,
    make_timeline,
)
from .spans import _gazes, _project_spans, _row_trig

DEFAULT_FPS = 30.0
METHOD_VAQM = "vaqm"
METHOD_AVAQM = "avaqm"
QUATERNION_UNIT_TOLERANCE = 1e-3
# Dot products per block when snapping PoGs to the nearest bank center:
# the (PoGs x centers) dot table stays in cache (1.6 MB), so a 200-center
# bank snaps 1024 PoGs per block.
NEAREST_CENTER_DOTS = 1024 * 200
_NEAREST_TIE_DOT = 1e-12
# A PoG certified to a bank center is nearer to it than to any other
# center by at least this much in dot product.
_CERTIFIED_GAP_DOT = 10 * _NEAREST_TIE_DOT

TRACE_HEADER = ("frame", "theta_deg", "phi_deg")
QUATERNION_HEADER = ("frame", "qw", "qx", "qy", "qz")

MANIFEST_KEYS = ("content", "trace", "synthetic", "segment_ms")
# synthetic_trace parameters a manifest recipe may set.
RECIPE_KEYS = ("duration_s", "fps", "speed_deg_per_s", "dwell_probability", "seed", "turn_sigma_deg")

# Dataset axis conventions for the quaternion adapter.  Row i of each
# matrix is the image of the dataset's i-th basis vector in this
# package's frame, chosen so the dataset's forward direction lands on
# (theta, phi) = (180, 90):
#   y-up: x right, y up, z backward (forward = -z)
#   z-up: x forward, y left, z up
_QUATERNION_CONVENTIONS = {
    "y-up": np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    "z-up": np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
}
_FORWARD_BY_CONVENTION = {
    "y-up": np.array([0.0, 0.0, -1.0]),
    "z-up": np.array([1.0, 0.0, 0.0]),
}


@dataclass(frozen=True, eq=False)
class SessionTrace:
    """One PoG per frame, gap-free from frame 0, as angle arrays in degrees.

    The arrays are stored as read-only float64 copies, normalized like
    SphericalPoint: theta to [0, 360) and phi clamped to [0, 180].
    Traces compare by identity.
    """

    frames_per_second: float
    theta_deg: np.ndarray
    phi_deg: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.frames_per_second) and self.frames_per_second > 0.0):
            raise ValueError(f"frame rate must be positive and finite, got {self.frames_per_second}")
        theta = np.array(self.theta_deg, dtype=np.float64)
        phi = np.array(self.phi_deg, dtype=np.float64)
        if theta.ndim != 1 or theta.shape != phi.shape:
            raise ValueError("trace angles must be two 1-D arrays of equal length")
        if not theta.size:
            raise ValueError("trace has no samples")
        if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
            raise ValueError("trace angles must be finite")
        np.mod(theta, 360.0, out=theta)
        # A tiny negative azimuth rounds to 360 under mod.
        theta[theta == 360.0] = 0.0
        np.clip(phi, 0.0, 180.0, out=phi)
        for name, values in (("theta_deg", theta), ("phi_deg", phi)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @cached_property
    def samples(self) -> tuple[SphericalPoint, ...]:
        """The PoGs as points, built on first use."""
        return tuple(SphericalPoint(t, p) for t, p in zip(self.theta_deg.tolist(), self.phi_deg.tolist()))

    @property
    def n_frames(self) -> int:
        return self.theta_deg.size


@dataclass(frozen=True)
class SessionConfig:
    """Delivery and evaluation parameters of one session run; ``_flags`` holds
    the footprint's HQ flags (_hq_table), then their complements: (tiles, 2 variants)."""

    segment_ms: float
    fov: FieldOfView
    resolution: Resolution
    layout: VariantLayout
    hq_footprint: object = "area+neighbors"
    avaqm_grid: tuple[int, int] | None = None
    t_q: float = DEFAULT_T_Q
    normalization: str = NORMALIZATION_MASK_AREA

    def __post_init__(self) -> None:
        if not (math.isfinite(self.segment_ms) and self.segment_ms > 0.0):
            raise ValueError(f"segment length must be positive and finite, got {self.segment_ms} ms")
        if self.layout.grid.resolution != self.resolution:
            raise ValueError("layout tiling and session resolution differ")
        if self.avaqm_grid is not None:
            _check_bank_grid(self.avaqm_grid)
        if not 0.0 <= self.t_q <= 1.0:
            raise ValueError(f"quality threshold t_q must lie in [0, 1], got {self.t_q}")
        if self.normalization not in (NORMALIZATION_MASK_AREA, NORMALIZATION_ANALYTIC):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        hq = _hq_table(self.layout, self.hq_footprint).reshape(self.layout.variant_count, -1)
        flags = np.concatenate((hq, ~hq)).T.astype(np.float64, order="C")
        flags.setflags(write=False)
        object.__setattr__(self, "_flags", flags)

    @property
    def method(self) -> str:
        """The method the bank grid selects: "avaqm" with one (the nearest
        center's mask per frame), "vaqm" without (the exact viewport)."""
        return METHOD_VAQM if self.avaqm_grid is None else METHOD_AVAQM


@dataclass(frozen=True, eq=False)
class ApproximationReport:
    """Per-grid error of nearest-bank-mask evaluation against exact projection.
    Reports compare by identity."""

    grid_rows: int
    grid_cols: int
    mean_relative_error: float
    per_frame_errors: np.ndarray
    excluded_frames: int


@dataclass(frozen=True, eq=False)
class SessionGeometry:
    """Stage 1 of a session evaluation.

    ``tile_sums`` holds rows of per-tile mask weight sums (tiles
    row-major): one per moved PoG for vaqm and one per bank center for
    avaqm.  ``mask_rows[i]`` is the row frame i uses.  ``key``
    names the configuration the geometry depends on, so stage 2 can
    refuse a geometry made for another one.
    """

    key: tuple
    tile_sums: np.ndarray
    mask_rows: np.ndarray


# ---------------------------------------------------------------------------
# trace ingestion and generation
# ---------------------------------------------------------------------------


def _trace_rows(source, dtype: np.dtype) -> np.ndarray:
    """Rows of a text handle or a list of lines, by np.loadtxt.  numpy
    warnings are raised as errors: numpy 1.23-1.26 only warns when it reads
    a frame such as 1.0 as an integer, and every version warns on no rows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _data_lines(path: str):
    """(file line, text) of each non-empty line after the header.  Lines
    end at LF, CR or CRLF both here and in np.loadtxt, which skips the
    empty ones, and no row spans two lines, so the i-th row is the i-th
    line given here."""
    with open(path, newline="") as handle:
        next(handle)
        yield from ((number, line) for number, line in enumerate(handle, start=2) if line.rstrip("\r\n"))


def _line_of(path: str, index: int) -> int:
    """File line of the index-th data row."""
    return next(itertools.islice(_data_lines(path), index, None))[0]


def _frame_order(path: str, frames: np.ndarray) -> np.ndarray:
    """Row index of frames 0..n-1; rejects duplicate and missing frames."""
    order = np.argsort(frames, kind="stable")
    ranked = frames[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if repeats.size:
        index = int(repeats.min())
        raise ValueError(f"{path}:{_line_of(path, index)}: duplicate frame {frames[index]}")
    n = frames.size
    present = np.zeros(n, dtype=bool)
    present[frames[(frames >= 0) & (frames < n)]] = True
    missing = np.flatnonzero(~present)
    if missing.size:
        raise ValueError(f"{path}: missing frame {missing[0]}")
    return order


def _refuses(lines: list[str], dtype: np.dtype) -> bool:
    """Whether np.loadtxt refuses these data lines."""
    try:
        _trace_rows(lines, dtype)
    except (ValueError, Warning):
        return True
    return False


def _refused_row(path: str, dtype: np.dtype) -> str:
    """Why np.loadtxt refused a file: its first data line that np.loadtxt
    refuses alone, or else that it holds no data line.

    np.loadtxt reads each row on its own (a fixed dtype, no quoting and
    no comments), so it refuses a run of lines iff it refuses one of them
    alone.  The search halves the run that holds the first refused line:
    when the run's first half is refused the line lies in it, and
    otherwise in the second half.  That takes about log2(lines) calls and
    reads at most as many rows as the file holds.
    """
    numbers, lines = [], []
    for number, line in _data_lines(path):
        numbers.append(number)
        lines.append(line)
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _refuses(lines[lo:mid], dtype):
            hi = mid
        else:
            lo = mid
    if hi > lo and _refuses(lines[lo:hi], dtype):
        return f"{path}:{numbers[lo]}: malformed row"
    return f"{path}: empty trace"


def _load_columns(path: str) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Header, frame numbers and finite value columns of a trace file.

    The first line holds the header's comma-separated names, each stripped;
    np.loadtxt reads every row after it from the same handle.  A file it
    refuses is reported at its first data line that it refuses alone
    (_refused_row), and a non-finite value at its row's line.
    """
    try:
        with open(path, newline="") as handle:
            line = handle.readline()
            if not line:
                raise ValueError(f"{path}: empty trace")
            text = line.rstrip("\r\n")
            header = tuple(name.strip() for name in text.split(","))
            if header not in (TRACE_HEADER, QUATERNION_HEADER):
                raise ValueError(f"{path}:1: unrecognized header {text!r}")
            dtype = np.dtype([("frame", np.int64), ("values", np.float64, (len(header) - 1,))])
            try:
                table = _trace_rows(handle, dtype)
            except (ValueError, Warning):
                raise ValueError(_refused_row(path, dtype)) from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values = table["values"]
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{path}:{_line_of(path, int(np.argmin(finite.all(axis=1))))}: non-finite value")
    return header, np.ascontiguousarray(table["frame"]), np.ascontiguousarray(values)


def _cross(a, b) -> tuple:
    """Cross product of two vectors given by their three components, floats
    or arrays: np.cross's products and differences, in its order, without
    its per-call overhead."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _quaternion_directions(qw, qx, qy, qz, convention: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The convention's forward axis f rotated by each unit quaternion, in
    this package's frame: f + qw t + u x t with u = (qx, qy, qz) and t =
    2 u x f, both cross products taken one component at a time."""
    forward = _FORWARD_BY_CONVENTION[convention].tolist()
    u = (qx, qy, qz)
    t = [2.0 * c for c in _cross(u, forward)]
    rotated = np.stack([f + qw * ti + c for f, ti, c in zip(forward, t, _cross(u, t))], axis=1)
    return tuple((rotated @ _QUATERNION_CONVENTIONS[convention]).T)


def parse_trace(path: str, fps: float = DEFAULT_FPS, convention: str = "y-up") -> SessionTrace:
    """Read a head-movement trace CSV.

    Accepts the canonical header frame,theta_deg,phi_deg or the
    quaternion header frame,qw,qx,qy,qz, then one row per non-empty
    line: an integer frame and the header's values, plain numbers
    separated by commas, with spaces around a number allowed.  Quaternion
    rows rotate the convention's forward axis and must be unit within
    1e-3; the identity quaternion maps to (180, 90).  Frames must number
    0..n-1 once each, in any row order, and every value must be finite;
    a bad row is reported as path:line.
    """
    if convention not in _QUATERNION_CONVENTIONS:
        raise ValueError(f"unknown axis convention {convention!r}")
    header, frames, values = _load_columns(path)
    order = _frame_order(path, frames)
    if header == TRACE_HEADER:
        return SessionTrace(fps, values[order, 0], values[order, 1])
    norms = np.linalg.norm(values, axis=1)
    # Negated so that a NaN norm fails as well.
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= QUATERNION_UNIT_TOLERANCE))
    if bad.size:
        index = int(bad[0])
        raise ValueError(
            f"{path}:{_line_of(path, index)}: non-unit quaternion (|q| = {norms[index]:.6f}) "
            f"at frame {frames[index]}"
        )
    q = values[order] / norms[order, None]
    x, y, z = _quaternion_directions(q[:, 0], q[:, 1], q[:, 2], q[:, 3], convention)
    return SessionTrace(fps, *cartesian_to_spherical_arrays(x, y, z))


def write_trace_csv(trace: SessionTrace, path: str) -> None:
    """Write a trace in the canonical CSV format."""
    lines = [",".join(TRACE_HEADER)]
    lines.extend(
        f"{frame},{theta!r},{phi!r}"
        for frame, (theta, phi) in enumerate(zip(trace.theta_deg.tolist(), trace.phi_deg.tolist()))
    )
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def synthetic_trace(
    duration_s: float = 60.0,
    fps: float = DEFAULT_FPS,
    speed_deg_per_s: float = 45.0,
    dwell_probability: float = 0.2,
    seed: int = 0,
    turn_sigma_deg: float = 20.0,
) -> SessionTrace:
    """Seeded spherical random walk: per frame, either dwell or advance
    along the current heading by speed/fps degrees, with the heading
    diffusing by a normal turn angle of standard deviation turn_sigma_deg.
    The speed and the turn sigma must be finite and non-negative."""
    frames = duration_s * fps
    n_frames = round(frames) if math.isfinite(frames) else 0
    if n_frames < 1:
        raise ValueError(f"duration {duration_s} s at {fps} fps yields no frames")
    if not 0.0 <= dwell_probability <= 1.0:
        raise ValueError(f"dwell probability must lie in [0, 1], got {dwell_probability}")
    for name, value in (("speed_deg_per_s", speed_deg_per_s), ("turn_sigma_deg", turn_sigma_deg)):
        # NaN fails the comparison too.
        if not 0.0 <= value <= sys.float_info.max:
            raise ValueError(f"{name} must be non-negative and finite, got {value}")
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - z * z)
    p = np.array([s * math.cos(azimuth), s * math.sin(azimuth), z])
    heading = np.array(_cross(p, rng.normal(size=3)))
    while np.linalg.norm(heading) < 1e-9:
        heading = np.array(_cross(p, rng.normal(size=3)))
    heading /= np.linalg.norm(heading)

    step = math.radians(speed_deg_per_s / fps)
    xs = np.empty(n_frames)
    ys = np.empty(n_frames)
    zs = np.empty(n_frames)
    for i in range(n_frames):
        xs[i], ys[i], zs[i] = p
        if rng.random() < dwell_probability or step == 0.0:
            continue
        turn = math.radians(rng.normal(0.0, turn_sigma_deg))
        heading = heading * math.cos(turn) + np.array(_cross(p, heading)) * math.sin(turn)
        p, heading = (
            p * math.cos(step) + heading * math.sin(step),
            heading * math.cos(step) - p * math.sin(step),
        )
        p /= np.linalg.norm(p)
        heading -= p * np.dot(heading, p)
        heading /= np.linalg.norm(heading)
    return SessionTrace(fps, *cartesian_to_spherical_arrays(xs, ys, zs))


# ---------------------------------------------------------------------------
# segment adaptation
# ---------------------------------------------------------------------------


def segment_frames(segment_ms: float, fps: float) -> int:
    """Frames per segment; the segment must be a whole number of frames."""
    exact = segment_ms * fps / 1000.0
    frames = round(exact) if math.isfinite(exact) else 0
    if frames < 1 or abs(exact - frames) > 1e-9:
        raise ValueError(f"segment of {segment_ms} ms is not a positive multiple of the frame period at {fps:g} fps")
    return frames


def active_variant(trace: SessionTrace, config: SessionConfig, frame_index: int) -> int:
    """Variant serving the segment that contains the frame.

    The choice is made from the PoG sampled at the segment's first
    frame, which models a motion-to-photon latency of the remaining
    segment duration.
    """
    if not 0 <= frame_index < trace.n_frames:
        raise ValueError(f"frame {frame_index} outside trace of {trace.n_frames} frames")
    length = segment_frames(config.segment_ms, trace.frames_per_second)
    first = (frame_index // length) * length
    return int(config.layout._areas_at(trace.theta_deg[first], trace.phi_deg[first]))


def _variant_per_frame(trace: SessionTrace, config: SessionConfig) -> np.ndarray:
    """active_variant of every frame, from one lookup per segment start."""
    length = segment_frames(config.segment_ms, trace.frames_per_second)
    starts = config.layout._areas_at(trace.theta_deg[::length], trace.phi_deg[::length])
    return np.repeat(starts, length)[: trace.n_frames]


# ---------------------------------------------------------------------------
# stage 1: geometry
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _tile_table(grid: TileGrid) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """What the tile sums read of a tile grid, read-only: the tile-row
    edges; the prefix sums S of the pixel rows' sin(phi) (_row_trig), S[k]
    summing rows < k; S at each tile-row edge, as a column; and the first
    column of each tile column."""
    row_edges = grid.row_edges()
    prefix = np.concatenate(([0.0], np.cumsum(_row_trig(grid.resolution)[0])))
    edge_prefix = prefix[row_edges, None]
    col_starts = grid.col_edges()[:-1]
    for table in (prefix, edge_prefix, col_starts):
        table.setflags(write=False)
    return tuple(row_edges.tolist()), prefix, edge_prefix, col_starts


def _tile_row_weights(start: int, rows: np.ndarray, grid: TileGrid) -> tuple[int, np.ndarray]:
    """Sum of sin(phi) mask weights of each column inside each tile row,
    from the spans of a cyclic run of columns (_project_spans): the first
    tile row of the spans' box and the box's weights, shape (box rows, n_h).

    A column's weight above tile-row edge e is S[clip(e, top, bot + 1)],
    with S the sin(phi) prefix sums of _tile_table; differences over the
    edges give its weight in each tile row, so all tile rows come out of
    one pass.  Every row's sin(phi) is positive, so S is strictly
    increasing and that value is clip(S[e], S[top], S[bot + 1]), bit for
    bit: two gathers per column and a max and a min per inner edge (the
    first edge gives min(S[top], S[bot + 1]) and the last S[bot + 1]).
    An empty column (top > bot) clamps every edge to S[bot + 1] and adds
    nothing.

    The box runs from the tile row of the least top to that of the
    greatest bot.  Every edge up to its first clamps to min(S[top],
    S[bot + 1]) and every edge from its last on to S[bot + 1], so each
    weight outside the box, or outside the run, is exactly +0.0.
    """
    n_h, count = grid.resolution.n_h, rows.shape[1]
    row_edges, prefix, edge_prefix, _ = _tile_table(grid)
    top, bot = rows
    first = bisect.bisect_right(row_edges, int(top.min())) - 1
    last = max(first, bisect.bisect_right(row_edges, int(bot.max())))
    above = np.empty((last - first + 1, count))
    lo, hi = above[0], above[-1]
    # Spans index rows 0..n_v, so the gathers need no bounds check.
    prefix.take(top, out=lo, mode="clip")
    prefix.take(bot + 1, out=hi, mode="clip")
    inner = above[1:-1]
    np.maximum(lo, edge_prefix[first + 1 : last], out=inner)
    np.minimum(inner, hi, out=inner)
    np.minimum(lo, hi, out=lo)
    weights = np.empty((last - first, n_h))
    stop = start + count
    if stop <= n_h:
        weights[:, :start] = 0.0
        weights[:, stop:] = 0.0
        np.subtract(above[1:], above[:-1], out=weights[:, start:stop])
    else:
        # The run crosses the seam: its last stop - n_h columns come first.
        head = n_h - start
        weights[:, stop - n_h : start] = 0.0
        np.subtract(above[1:, :head], above[:-1, :head], out=weights[:, start:])
        np.subtract(above[1:, head:], above[:-1, head:], out=weights[:, : stop - n_h])
    return first, weights


def _tile_weight_sums(start: int, rows: np.ndarray, grid: TileGrid, out: np.ndarray) -> None:
    """Sum of sin(phi) mask weights inside each tile, written into out, a
    zeroed table of shape (tile rows, tile cols): _tile_row_weights summed
    per tile over all n_h columns.  Only the box's tile rows are written;
    the others stay zero.  reduceat sums a tile as its first value plus
    the pairwise sum of the rest, so the +0.0 columns stay in place to keep
    the bits."""
    first, weights = _tile_row_weights(start, rows, grid)
    np.add.reduceat(weights, _tile_table(grid)[3], axis=1, out=out[first : first + len(weights)])


def _tile_sums_at(theta_deg: np.ndarray, phi_deg: np.ndarray, config: SessionConfig) -> np.ndarray:
    """Tile sums of the exact viewport at each PoG, shape (PoGs, tiles):
    one set-up pass for all PoGs (_gazes), then per PoG its spans, summed
    straight into its row of the table."""
    res, grid = config.resolution, config.layout.grid
    sums = np.zeros((theta_deg.size, grid.rows, grid.cols))
    for gaze, out in zip(_gazes(theta_deg, phi_deg, config.fov, res), sums):
        start, rows, _ = _project_spans(gaze, res)
        _tile_weight_sums(start, rows, grid, out)
    return sums.reshape(theta_deg.size, -1)


def _check_bank_grid(grid) -> None:
    # type() is int rejects bools.
    if not (type(grid) is tuple and len(grid) == 2 and all(type(n) is int and n > 0 for n in grid)):
        raise ValueError(f"bank grid must be a pair of positive integers, got {grid!r}")


def _bank_axes(grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Azimuths of the columns and polar angles of the rows of a bank grid's
    centers, each at the middle of its cell."""
    _check_bank_grid(grid)
    rows, cols = grid
    return (np.arange(cols) + 0.5) * (360.0 / cols), (np.arange(rows) + 0.5) * (180.0 / rows)


def _bank_angles(grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Azimuths and polar angles of the centers of a bank grid (bank_centers)."""
    theta, phi = _bank_axes(grid)
    return np.concatenate([theta] * len(phi)), np.repeat(phi, len(theta))


def _unit_vectors(theta_deg: np.ndarray, phi_deg: np.ndarray) -> np.ndarray:
    """Unit vectors of angle arrays, shape (directions, 3)."""
    return np.stack(spherical_to_cartesian_arrays(theta_deg, phi_deg), axis=1)


def bank_centers(grid_rows: int, grid_cols: int) -> tuple[SphericalPoint, ...]:
    """Cell-centered grid of PoG centers, row-major from the north edge."""
    theta, phi = _bank_angles((grid_rows, grid_cols))
    return tuple(map(SphericalPoint, theta.tolist(), phi.tolist()))


def _nearest_centers(centers_xyz: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Index of the center, of unit vectors centers_xyz, nearest to each
    of the unit vectors directions on the sphere (both _unit_vectors): the
    dense rule, one dot product per center.

    That is the largest dot product; dot products within _NEAREST_TIE_DOT
    of it tie, and a tie goes to the lowest index.  The margin is far above
    the rounding of a 3-term dot product, so one PoG resolves a tie the
    same way as a block does.  A block holds NEAREST_CENTER_DOTS / centers
    PoGs, at least one.  avaqm's frames reach this rule only when no
    center is certified to them (_snapped_centers).
    """
    if not len(centers_xyz):
        raise ValueError("no centers to snap to")
    nearest = np.empty(len(directions), dtype=np.intp)
    block = max(1, NEAREST_CENTER_DOTS // len(centers_xyz))
    for start in range(0, len(directions), block):
        dots = directions[start : start + block] @ centers_xyz.T
        ties = dots >= dots.max(axis=1, keepdims=True) - _NEAREST_TIE_DOT
        nearest[start : start + len(dots)] = np.argmax(ties, axis=1)
    return nearest


def nearest_center_index(centers: Sequence[SphericalPoint], pog: SphericalPoint) -> int:
    """Index of the center with smallest great-circle distance to the PoG.

    Ties resolve to the lowest (row, col) index, as the centers are
    stored row-major; see _nearest_centers, the dense rule this applies.
    avaqm's frames get the same index in two steps (_snapped_centers).
    """
    theta = np.array([c.theta_deg for c in centers], dtype=np.float64)
    phi = np.array([c.phi_deg for c in centers], dtype=np.float64)
    pog_xyz = _unit_vectors(np.array([pog.theta_deg]), np.array([pog.phi_deg]))
    return int(_nearest_centers(_unit_vectors(theta, phi), pog_xyz)[0])


def _snap_tables(grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Sine and cosine tables of a bank grid for _snapped_centers.

    Per column j, shape (3, 2, cols): sin theta_j and cos theta_j, then s
    times their differences to column j - 1, then to column j + 1, where
    columns count mod cols and s = sin(90/rows), the least sin phi of any
    row.  Per row k, shape (2, 2, rows): sin phi_k and cos phi_k less
    those of row k - 1, then of row k + 1.  Past the poles the rows are
    mirrored: phi_{-1} = -phi_0 and phi_rows = 360 - phi_{rows-1}.
    """
    theta, phi = _bank_axes(grid)
    rows, cols = len(phi), len(theta)
    angles = np.deg2rad(np.concatenate((theta[-1:], theta, theta[:1], -phi[:1], phi, 360.0 - phi[-1:])))
    trig = np.array((np.sin(angles), np.cos(angles)))
    azimuth, polar = trig[:, : cols + 2], trig[:, cols + 2 :]
    s = math.sin(math.pi / (2 * rows))
    own = azimuth[:, 1:-1]
    columns = np.array((own, s * (own - azimuth[:, :-2]), s * (own - azimuth[:, 2:])))
    own = polar[:, 1:-1]
    return columns, np.array((own - polar[:, :-2], own - polar[:, 2:]))


def _snapped_centers(
    centers_xyz: np.ndarray, tables: tuple[np.ndarray, np.ndarray], theta_deg: np.ndarray, phi_deg: np.ndarray
) -> np.ndarray:
    """Index of the center nearest to each PoG by the dense rule
    (_nearest_centers), for a bank of center unit vectors centers_xyz and
    its _snap_tables, in two steps.

    1. The candidate lies in the PoG's own column j = floor(theta cols/360)
       mod cols, in the row k nearest to psi = atan2(h_j, z), where the PoG
       has unit vector (x, y, z) and h_j = x sin theta_j + y cos theta_j =
       sin phi cos(theta - theta_j).  It is taken when its dot product
       beats those of its four grid neighbours, rows k - 1 and k + 1 of
       column j and columns j - 1 and j + 1 of row k, by
       _CERTIFIED_GAP_DOT.
    2. Every other PoG goes through the dense rule.

    Why the candidate is then the dense rule's index: the dot product with
    center (k, j) is sin phi_k h_j + cos phi_k z, and h_j = rho cos(alpha
    - theta_j), with (rho, alpha) the polar form of (x, y).  So within any
    row the dot product falls as the azimuth gap |alpha - theta_j| grows.
    A column that beats both of its neighbours holds the PoG's least
    azimuth gap, below 180/cols, and its center is the nearest in every
    row.  With two or more columns that gap is below 90 degrees, so h_j >
    0 and psi lies in (0, 180).  Down column j the dot product is R
    cos(phi_k - psi), which rises and then falls, so a row that beats both
    of its neighbours is the nearest of the column.  The candidate then
    beats every other center by at least the least of its four gaps.  Row
    neighbours past a pole are mirrored centers: beating them is not
    needed, and fails only near a pole.  The column gaps are bounded from
    below with sin(90/rows) in place of sin phi_k (_snap_tables).  With
    one column a center is its own column neighbour, so its gaps are 0 and
    nothing is certified; ties and poles leave a gap near 0 as well.

    The gaps round by about 1e-15, as do the dense rule's dot products;
    _CERTIFIED_GAP_DOT, ten times the tie margin, leaves the candidate the
    one largest dot product, with no tie.  psi only picks the candidate,
    which the gaps check, so it takes |h_j| and the row is at most rows -
    1.  The PoGs' unit vectors are formed once, for both steps.
    """
    columns, polar = tables
    cols, rows = columns.shape[2], polar.shape[2]
    directions = np.array(spherical_to_cartesian_arrays(theta_deg, phi_deg))
    x, y, z = directions
    col = (theta_deg * (cols / 360.0)).astype(np.intp) % cols
    terms = columns.take(col, axis=2)
    # h_j, then the two column gaps.
    azimuth = terms[:, 0] * x + terms[:, 1] * y
    h = azimuth[0]
    row = np.minimum((np.arctan2(np.abs(h), z) * (rows / np.pi)).astype(np.intp), rows - 1)
    terms = polar.take(row, axis=2)
    gaps = np.minimum(terms[:, 0] * h + terms[:, 1] * z, azimuth[1:])
    own = row * cols + col
    rest = (np.minimum(gaps[0], gaps[1]) < _CERTIFIED_GAP_DOT).nonzero()[0]
    own[rest] = _nearest_centers(centers_xyz, directions.T[rest])
    return own


def _bank_tile_sums(config: SessionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Center unit vectors (_unit_vectors), shape (centers, 3), and tile
    sums, shape (centers, tiles), of the bank of config.avaqm_grid.

    The centers of a bank row (bank_centers) share phi and, when the
    bank's column count divides n_h, sit n_h / cols pixel columns apart.
    Then only the row's first center is projected: center j's per-column
    tile-row weights are the first center's rolled by j n_h / cols
    columns, taken as a view of those weights laid twice side by side, and
    one reduceat per center sums them per tile.  Each tile sees the same
    values in the same order as after projecting center j, so the sums
    are bitwise equal.  That holds because every column end that
    _project_spans did not take again lies more than _TILTED_SLACK from a
    row center, far beyond the rounding by which the centers' arithmetic
    differs, so it rounds alike at every center of the row.  A row whose
    first center had an end taken again, and every row when the column
    count does not divide n_h, is projected center by center.
    """
    theta, phi = _bank_angles(config.avaqm_grid)
    centers = _unit_vectors(theta, phi)
    cols = config.avaqm_grid[1]
    res, grid = config.resolution, config.layout.grid
    n_h = res.n_h
    if n_h % cols:
        return centers, _tile_sums_at(theta, phi, config)
    step = n_h // cols
    col_starts = _tile_table(grid)[3]
    sums = np.zeros((len(centers), grid.rows, grid.cols))
    doubled = np.empty((grid.rows, 2 * n_h))
    for first, gaze in zip(range(0, len(centers), cols), _gazes(theta[::cols], phi[::cols], config.fov, res)):
        start, rows, near = _project_spans(gaze, res)
        row_sums = sums[first : first + cols]
        if near.size:
            _tile_weight_sums(start, rows, grid, row_sums[0])
            rest = slice(first + 1, first + cols)
            row_sums[1:] = _tile_sums_at(theta[rest], phi[rest], config).reshape(-1, grid.rows, grid.cols)
            continue
        # Every center of the row has the first center's box.
        row0, weights = _tile_row_weights(start, rows, grid)
        box = doubled[: len(weights)]
        np.concatenate((weights, weights), axis=1, out=box)
        for shift, out in zip(range(0, n_h, step), row_sums):
            np.add.reduceat(box[:, n_h - shift : 2 * n_h - shift], col_starts, axis=1, out=out[row0 : row0 + len(box)])
    return centers, sums.reshape(len(centers), -1)


def _geometry_key(config: SessionConfig) -> tuple:
    return (config.fov, config.resolution, config.layout.grid, config.avaqm_grid)


def session_geometries(traces: Sequence[SessionTrace], config: SessionConfig) -> list[SessionGeometry]:
    """Stage 1 of each trace: per-mask tile sums and each frame's mask.

    A frame moved when its PoG differs from the frame before's (frame 0
    always has); a repeated PoG takes the mask of the last moved frame, so
    only moved PoGs make masks.  Without a bank grid (vaqm) each moved PoG
    is projected exactly; with one (avaqm) the bank is built once for all
    traces (_bank_tile_sums) and each moved PoG snaps to its nearest
    center (_snapped_centers, with the bank grid's _snap_tables).
    Only the traces, FoV, resolution, tile grid and bank grid matter, so
    one geometry serves every segment length, footprint, normalization
    and threshold.
    """
    key = _geometry_key(config)
    bank = None if config.avaqm_grid is None else _bank_tile_sums(config)
    tables = None if bank is None else _snap_tables(config.avaqm_grid)
    geometries = []
    for trace in traces:
        theta, phi = trace.theta_deg, trace.phi_deg
        moved = np.ones(trace.n_frames, dtype=bool)
        moved[1:] = (theta[1:] != theta[:-1]) | (phi[1:] != phi[:-1])
        rows = np.cumsum(moved) - 1
        if bank is None:
            sums = _tile_sums_at(theta[moved], phi[moved], config)
        else:
            centers, sums = bank
            rows = _snapped_centers(centers, tables, theta[moved], phi[moved])[rows]
        geometries.append(SessionGeometry(key, sums, rows))
    return geometries


# ---------------------------------------------------------------------------
# stage 2: pooling
# ---------------------------------------------------------------------------


def _pooled(
    trace: SessionTrace, geometry: SessionGeometry, variants: np.ndarray, config: SessionConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame quality and denominator of the trace, gathered from one
    table: each mask row times the config's flags on its own, so its bits
    ignore the row count.  A zero denominator names its first frame."""
    table = np.matmul(geometry.tile_sums[:, None, :], config._flags)[:, 0]
    numerator = table[geometry.mask_rows, variants]
    if config.normalization == NORMALIZATION_ANALYTIC:
        denominator = np.full(numerator.shape, equivalent_pixels_viewport(config.resolution, config.fov))
    else:
        # The numerator is one term of the denominator's sum, so q <= 1
        # holds exactly, and q = 1 when no weight falls outside HQ tiles.
        denominator = numerator + table[geometry.mask_rows, variants + config.layout.variant_count]
    if not np.all(denominator > 0.0):
        frame = int(np.argmin(denominator > 0.0))
        theta, phi = float(trace.theta_deg[frame]), float(trace.phi_deg[frame])
        raise ValueError(f"mask has zero area at frame {frame} (PoG theta {theta!r}, phi {phi!r})")
    return numerator / denominator, denominator


def _check_geometry(geometry: SessionGeometry, trace: SessionTrace, config: SessionConfig) -> None:
    if geometry.key != _geometry_key(config) or geometry.mask_rows.size != trace.n_frames:
        raise ValueError("session geometry belongs to another trace or configuration")


def pool_session(trace: SessionTrace, config: SessionConfig, geometry: SessionGeometry) -> QualityTimeline:
    """Stage 2: quality timeline of a session from its stage-1 geometry."""
    _check_geometry(geometry, trace, config)
    q, area = _pooled(trace, geometry, _variant_per_frame(trace, config), config)
    return make_timeline(q, area, config.t_q)


def evaluate_session(trace: SessionTrace, config: SessionConfig) -> QualityTimeline:
    """Quality timeline of a whole session: both stages in turn.

    Method "vaqm" projects the exact viewport at every frame's PoG;
    "avaqm" substitutes the mask of the bank center nearest to it.
    """
    return pool_session(trace, config, session_geometries([trace], config)[0])


# ---------------------------------------------------------------------------
# approximation error study
# ---------------------------------------------------------------------------


def approximation_error_study(
    traces: Sequence[SessionTrace],
    config: SessionConfig,
    grids: Sequence[tuple[int, int]],
    exact_geometries: Sequence[SessionGeometry] | None = None,
) -> list[ApproximationReport]:
    """Relative error of nearest-bank evaluation, per bank grid.

    For every frame of every trace the exact-projection quality q and
    the nearest-mask quality q' share the same grade map; the error is
    |q' - q| / q, and frames with q = 0 are excluded from the mean and
    counted.  ``exact_geometries`` may pass each trace's vaqm stage-1
    geometry when the caller already has it; each bank grid is built
    once for all traces.
    """
    if not traces:
        raise ValueError("no traces given")
    vaqm_config = replace(config, avaqm_grid=None)
    if exact_geometries is None:
        exact_geometries = session_geometries(traces, vaqm_config)
    exact_q: list[np.ndarray] = []
    variant_series: list[np.ndarray] = []
    for trace, geometry in zip(traces, exact_geometries, strict=True):
        _check_geometry(geometry, trace, vaqm_config)
        variant_series.append(_variant_per_frame(trace, config))
        exact_q.append(_pooled(trace, geometry, variant_series[-1], vaqm_config)[0])
    reports = []
    for grid_dims in grids:
        bank_config = replace(config, avaqm_grid=grid_dims)
        errors = []
        excluded = 0
        bank_geometries = session_geometries(traces, bank_config)
        for trace, geometry, q, variants in zip(traces, bank_geometries, exact_q, variant_series):
            approx = _pooled(trace, geometry, variants, bank_config)[0]
            usable = q > 0.0
            excluded += int(np.count_nonzero(~usable))
            errors.append(np.abs(approx[usable] - q[usable]) / q[usable])
        all_errors = np.concatenate(errors)
        mean = float(100.0 * all_errors.mean()) if all_errors.size else 0.0
        reports.append(
            ApproximationReport(
                grid_rows=grid_dims[0],
                grid_cols=grid_dims[1],
                mean_relative_error=mean,
                per_frame_errors=all_errors,
                excluded_frames=excluded,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# batch manifests and reports
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _manifest_entry_problem(entry) -> str | None:
    if not isinstance(entry, dict) or ("trace" in entry) == ("synthetic" in entry):
        return "needs exactly one of a 'trace' path or a 'synthetic' generator spec"
    for key in entry:
        if key not in MANIFEST_KEYS:
            return f"unknown key {key!r}"
    content = entry.get("content", "")
    # csv.writer with a "\n" terminator does not quote a carriage return.
    if not isinstance(content, str) or "\r" in content:
        return "'content' must be a string without a carriage return"
    if "trace" in entry and not isinstance(entry["trace"], str):
        return "'trace' must be a file path"
    if "synthetic" in entry:
        recipe = entry["synthetic"]
        if not isinstance(recipe, dict):
            return "'synthetic' must be an object"
        for key, value in recipe.items():
            if key not in RECIPE_KEYS:
                return f"unknown key {key!r}"
            if not _is_number(value) or (key == "seed" and not isinstance(value, int)):
                return f"synthetic {key!r} must be {'an integer' if key == 'seed' else 'a number'}"
            # A seed may be any integer; the other values are used as floats.
            if key != "seed" and not abs(value) <= sys.float_info.max:
                return f"synthetic {key!r} must be finite"
    if "segment_ms" not in entry:
        return None
    segments = entry["segment_ms"]
    listed = segments if isinstance(segments, list) else [segments]
    if not (listed and all(map(_is_number, listed))):
        return "'segment_ms' must be a number or a non-empty list of numbers"
    # NaN fails the comparison; an integer past the float range fails it too.
    if not all(0.0 < length <= sys.float_info.max for length in listed):
        return f"'segment_ms' must be positive and finite, got {segments!r}"
    return None


def load_batch_manifest(path: str) -> list[dict]:
    """Batch run description: JSON list of {content, trace | synthetic, segment_ms}.

    Entries may hold only those keys, content must be a string without a
    carriage return, a synthetic recipe may hold only the synthetic_trace
    parameters in RECIPE_KEYS, an integer seed and finite numbers, and
    segment_ms is a positive finite number or a non-empty list of them.
    Errors name the file.
    """
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path}: manifest must be a non-empty JSON list")
    for position, entry in enumerate(raw):
        problem = _manifest_entry_problem(entry)
        if problem is not None:
            raise ValueError(f"{path}: entry {position}: {problem}")
    return raw


def session_report(
    timeline: QualityTimeline,
    config: SessionConfig,
    trace: SessionTrace,
    frame_csv: str | None = None,
) -> dict:
    """JSON-ready summary: config echo plus window aggregates."""
    report = {
        "q_window": timeline.q_window,
        "f_window": timeline.f_window,
        "t_q": timeline.threshold,
        "n_frames": timeline.q_frame.size,
        "fps": trace.frames_per_second,
        "segment_ms": config.segment_ms,
        "fov_deg": [config.fov.theta_deg, config.fov.phi_deg],
        "resolution": [config.resolution.n_h, config.resolution.n_v],
        "method": config.method,
        "normalization": config.normalization,
        "hq_footprint": config.hq_footprint if isinstance(config.hq_footprint, str) else "explicit",
    }
    if config.avaqm_grid is not None:
        report["avaqm_grid"] = list(config.avaqm_grid)
    if frame_csv is not None:
        report["frame_series"] = frame_csv
    return report
