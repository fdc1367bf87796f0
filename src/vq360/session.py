"""Viewport-adaptive session simulation and evaluation.

A session is a head-movement trace (one point of gaze per frame)
watched through segment-based adaptive delivery: the variant serving
each segment is chosen from the PoG sampled at the segment's first
frame, so within a segment the delivered quality layout is frozen and
head motion accumulates adaptation lag.  Each frame is scored by
pooling the viewport mask at that frame's PoG with the binary grade map
of the active variant, either projecting the exact mask at every frame
or substituting the mask of the nearest center from a bank of uniformly
spaced centers.

Because the grade maps are piecewise-constant over the delivery tiles,
per-frame pooling reduces to per-tile sums of mask weights.  The engine
computes them from the analytic per-column spans of the viewing pyramid
and never materializes dense rasters, which keeps bank studies over many
traces and grids cheap.  The tests check it against a dense reference
built on the per-pixel membership oracle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .geometry import (
    FieldOfView,
    Resolution,
    SphericalPoint,
    cartesian_to_spherical_arrays,
    equivalent_pixels_viewport,
    row_centers_deg,
    spherical_to_cartesian,
    spherical_to_cartesian_arrays,
)
from .grade import TileGrid, VariantLayout, hq_tile_set
from .mask import _atomic_write_bytes, _project_spans, bank_centers
from .pooling import (
    DEFAULT_T_Q,
    NORMALIZATION_ANALYTIC,
    NORMALIZATION_MASK_AREA,
    FrameQuality,
    QualityTimeline,
    make_timeline,
)

DEFAULT_FPS = 30.0
METHOD_VAQM = "vaqm"
METHOD_AVAQM = "avaqm"
QUATERNION_UNIT_TOLERANCE = 1e-3

TRACE_HEADER = ("frame", "theta_deg", "phi_deg")
QUATERNION_HEADER = ("frame", "qw", "qx", "qy", "qz")

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


@dataclass(frozen=True)
class SessionTrace:
    """One PoG per frame, gap-free from frame 0."""

    frames_per_second: float
    samples: tuple[SphericalPoint, ...]

    def __post_init__(self) -> None:
        if self.frames_per_second <= 0.0:
            raise ValueError(f"frame rate must be positive, got {self.frames_per_second}")
        if not self.samples:
            raise ValueError("trace has no samples")

    @property
    def n_frames(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.frames_per_second


@dataclass(frozen=True)
class SessionConfig:
    """Delivery and evaluation parameters of one session run."""

    segment_ms: float
    fov: FieldOfView
    resolution: Resolution
    layout: VariantLayout
    hq_footprint: object = "area+neighbors"
    method: str = METHOD_VAQM
    avaqm_grid: tuple[int, int] | None = None
    t_q: float = DEFAULT_T_Q
    normalization: str = NORMALIZATION_MASK_AREA

    def __post_init__(self) -> None:
        if self.segment_ms <= 0.0:
            raise ValueError(f"segment length must be positive, got {self.segment_ms} ms")
        if self.method not in (METHOD_VAQM, METHOD_AVAQM):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == METHOD_AVAQM and self.avaqm_grid is None:
            raise ValueError("method avaqm requires a bank grid")
        if self.layout.grid.resolution != self.resolution:
            raise ValueError("layout tiling and session resolution differ")


@dataclass(frozen=True)
class ApproximationReport:
    """Per-grid error of nearest-bank-mask evaluation against exact projection."""

    grid_rows: int
    grid_cols: int
    mean_relative_error: float
    per_frame_errors: np.ndarray
    excluded_frames: int


# ---------------------------------------------------------------------------
# trace ingestion and generation
# ---------------------------------------------------------------------------


def _read_rows(path: str) -> tuple[tuple[str, ...], list[list[str]]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = tuple(name.strip() for name in next(reader))
        except StopIteration:
            raise ValueError(f"{path}: empty trace") from None
        rows = [row for row in reader if row and any(field.strip() for field in row)]
    return header, rows


def _ordered_samples(path: str, entries: dict[int, SphericalPoint]) -> tuple[SphericalPoint, ...]:
    for frame in range(len(entries)):
        if frame not in entries:
            raise ValueError(f"{path}: missing frame {frame}")
    return tuple(entries[frame] for frame in range(len(entries)))


def _quaternion_directions(qw, qx, qy, qz, convention: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    forward = _FORWARD_BY_CONVENTION[convention]
    basis = _QUATERNION_CONVENTIONS[convention]
    u = np.stack([qx, qy, qz], axis=1)
    t = 2.0 * np.cross(u, forward[None, :])
    rotated = forward[None, :] + qw[:, None] * t + np.cross(u, t)
    return tuple((rotated @ basis).T)


def parse_trace(path: str, fps: float = DEFAULT_FPS, convention: str = "y-up") -> SessionTrace:
    """Read a head-movement trace CSV.

    Accepts the canonical header frame,theta_deg,phi_deg or the
    quaternion header frame,qw,qx,qy,qz.  Quaternion rows rotate the
    convention's forward axis and must be unit within 1e-3; the identity
    quaternion maps to (180, 90).
    """
    if convention not in _QUATERNION_CONVENTIONS:
        raise ValueError(f"unknown axis convention {convention!r}")
    header, rows = _read_rows(path)
    if header == TRACE_HEADER:
        entries: dict[int, SphericalPoint] = {}
        for line, row in enumerate(rows, start=2):
            try:
                frame = int(row[0])
                point = SphericalPoint(float(row[1]), float(row[2]))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{line}: malformed row") from exc
            if frame in entries:
                raise ValueError(f"{path}:{line}: duplicate frame {frame}")
            entries[frame] = point
        if not entries:
            raise ValueError(f"{path}: empty trace")
        return SessionTrace(fps, _ordered_samples(path, entries))
    if header == QUATERNION_HEADER:
        frames: list[int] = []
        quats: list[tuple[float, float, float, float]] = []
        for line, row in enumerate(rows, start=2):
            try:
                frames.append(int(row[0]))
                quats.append((float(row[1]), float(row[2]), float(row[3]), float(row[4])))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{line}: malformed row") from exc
        if not quats:
            raise ValueError(f"{path}: empty trace")
        q = np.array(quats)
        norms = np.linalg.norm(q, axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > QUATERNION_UNIT_TOLERANCE)
        if bad.size:
            raise ValueError(
                f"{path}: non-unit quaternion (|q| = {norms[bad[0]]:.6f}) at frame {frames[bad[0]]}"
            )
        q /= norms[:, None]
        x, y, z = _quaternion_directions(q[:, 0], q[:, 1], q[:, 2], q[:, 3], convention)
        theta, phi = cartesian_to_spherical_arrays(x, y, z)
        entries = {}
        for i, frame in enumerate(frames):
            if frame in entries:
                raise ValueError(f"{path}: duplicate frame {frame}")
            entries[frame] = SphericalPoint(float(theta[i]), float(phi[i]))
        return SessionTrace(fps, _ordered_samples(path, entries))
    raise ValueError(f"{path}: unrecognized header {','.join(header)}")


def write_trace_csv(trace: SessionTrace, path: str) -> None:
    """Write a trace in the canonical CSV format."""
    lines = [",".join(TRACE_HEADER)]
    lines.extend(
        f"{frame},{p.theta_deg!r},{p.phi_deg!r}" for frame, p in enumerate(trace.samples)
    )
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def synthetic_trace(
    duration_s: float = 60.0,
    fps: float = DEFAULT_FPS,
    speed_deg_per_s: float = 45.0,
    dwell_probability: float = 0.2,
    seed: int = 0,
    turn_sigma_deg: float = 20.0,
    start: SphericalPoint | None = None,
) -> SessionTrace:
    """Seeded spherical random walk: per frame, either dwell or advance
    along the current heading by speed/fps degrees, with the heading
    diffusing by a normal turn angle."""
    n_frames = round(duration_s * fps)
    if n_frames < 1:
        raise ValueError(f"duration {duration_s} s at {fps} fps yields no frames")
    if not 0.0 <= dwell_probability <= 1.0:
        raise ValueError(f"dwell probability must lie in [0, 1], got {dwell_probability}")
    if speed_deg_per_s < 0.0:
        raise ValueError(f"speed must be non-negative, got {speed_deg_per_s}")
    rng = np.random.default_rng(seed)
    if start is None:
        z = rng.uniform(-1.0, 1.0)
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        s = math.sqrt(1.0 - z * z)
        p = np.array([s * math.cos(azimuth), s * math.sin(azimuth), z])
    else:
        p = spherical_to_cartesian(start).as_array()
    heading = np.cross(p, rng.normal(size=3))
    while np.linalg.norm(heading) < 1e-9:
        heading = np.cross(p, rng.normal(size=3))
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
        heading = heading * math.cos(turn) + np.cross(p, heading) * math.sin(turn)
        p, heading = (
            p * math.cos(step) + heading * math.sin(step),
            heading * math.cos(step) - p * math.sin(step),
        )
        p /= np.linalg.norm(p)
        heading -= p * np.dot(heading, p)
        heading /= np.linalg.norm(heading)
    theta, phi = cartesian_to_spherical_arrays(xs, ys, zs)
    samples = tuple(SphericalPoint(float(t), float(f)) for t, f in zip(theta, phi))
    return SessionTrace(fps, samples)


# ---------------------------------------------------------------------------
# segment adaptation
# ---------------------------------------------------------------------------


def segment_frames(segment_ms: float, fps: float) -> int:
    """Frames per segment; the segment must be a whole number of frames."""
    exact = segment_ms * fps / 1000.0
    frames = round(exact)
    if frames < 1 or abs(exact - frames) > 1e-9:
        raise ValueError(f"segment of {segment_ms} ms is not a positive multiple of the frame period")
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
    return config.layout.area_containing(trace.samples[first])


def _variant_per_frame(trace: SessionTrace, config: SessionConfig) -> np.ndarray:
    length = segment_frames(config.segment_ms, trace.frames_per_second)
    variants = np.empty(trace.n_frames, dtype=np.int64)
    for first in range(0, trace.n_frames, length):
        variants[first : first + length] = config.layout.area_containing(trace.samples[first])
    return variants


# ---------------------------------------------------------------------------
# tile-sum evaluation engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _sin_prefix(res: Resolution) -> np.ndarray:
    """Prefix sums of sin(phi) over pixel rows; S[k] sums rows < k."""
    sines = np.sin(np.deg2rad(row_centers_deg(res)))
    return np.concatenate(([0.0], np.cumsum(sines)))


def _tile_weight_sums(top: np.ndarray, bot: np.ndarray, grid: TileGrid) -> np.ndarray:
    """Sum of sin(phi) mask weights inside each tile, from column spans.

    Clamping every tile-row edge into each column's span [top, bot + 1]
    gives prefix-sum indices whose differences are the column's weight in
    each tile row, so all tile rows come out of one pass.  An empty column
    (top > bot + 1) clamps every edge to bot + 1 and adds nothing.
    """
    prefix = _sin_prefix(grid.resolution)
    # int32 like the spans, so no index array is widened to int64.
    rows = np.clip(grid.row_edges().astype(np.int32)[:, None], top, bot + 1)
    return np.add.reduceat(np.diff(prefix[rows], axis=0), grid.col_edges()[:-1], axis=1)


def _hq_selectors(config: SessionConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per variant, the flags of its HQ tiles and of the remaining tiles."""
    grid = config.layout.grid
    selectors = []
    for variant in range(config.layout.variant_count):
        flags = np.zeros((grid.rows, grid.cols), dtype=bool)
        for r, c in hq_tile_set(config.layout, variant, config.hq_footprint):
            flags[r, c] = True
        selectors.append((flags, ~flags))
    return selectors


def _pooled(
    tile_sums: np.ndarray, selector: tuple[np.ndarray, np.ndarray], config: SessionConfig
) -> tuple[float, float]:
    hq, rest = selector
    numerator = float(tile_sums[hq].sum())
    if config.normalization == NORMALIZATION_ANALYTIC:
        denominator = equivalent_pixels_viewport(config.resolution, config.fov)
    else:
        # The numerator is one term of the denominator's sum, so q <= 1
        # holds exactly, and q = 1 when no weight falls outside HQ tiles.
        denominator = numerator + float(tile_sums[rest].sum())
    if denominator <= 0.0:
        raise ValueError("mask has zero area")
    return numerator / denominator, denominator


def _bank_tile_sums(config: SessionConfig, grid_dims: tuple[int, int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Center unit vectors and per-center tile sums for a bank grid."""
    centers = bank_centers(*grid_dims)
    xyz = np.array([spherical_to_cartesian(c).as_array() for c in centers])
    sums = [
        _tile_weight_sums(*_project_spans(c, config.fov, config.resolution), config.layout.grid)
        for c in centers
    ]
    return xyz, sums


def _trace_directions(trace: SessionTrace) -> np.ndarray:
    theta = np.array([p.theta_deg for p in trace.samples])
    phi = np.array([p.phi_deg for p in trace.samples])
    return np.stack(spherical_to_cartesian_arrays(theta, phi), axis=1)


def evaluate_session(trace: SessionTrace, config: SessionConfig) -> QualityTimeline:
    """Quality timeline of a whole session.

    Method "vaqm" projects the exact viewport at every frame's PoG;
    "avaqm" substitutes the mask of the bank center nearest to it.
    """
    selectors = _hq_selectors(config)
    variants = _variant_per_frame(trace, config)
    frames: list[FrameQuality] = []
    if config.method == METHOD_VAQM:
        for index in range(trace.n_frames):
            top, bot = _project_spans(trace.samples[index], config.fov, config.resolution)
            sums = _tile_weight_sums(top, bot, config.layout.grid)
            q, area = _pooled(sums, selectors[variants[index]], config)
            frames.append(FrameQuality(index, q, area))
        return make_timeline(frames, config.t_q)
    centers_xyz, center_sums = _bank_tile_sums(config, config.avaqm_grid)
    directions = _trace_directions(trace)
    nearest = np.argmax(directions @ centers_xyz.T, axis=1)
    for index in range(trace.n_frames):
        sums = center_sums[nearest[index]]
        q, area = _pooled(sums, selectors[variants[index]], config)
        frames.append(FrameQuality(index, q, area))
    return make_timeline(frames, config.t_q)


# ---------------------------------------------------------------------------
# approximation error study
# ---------------------------------------------------------------------------


def approximation_error_study(
    traces: Sequence[SessionTrace],
    config: SessionConfig,
    grids: Sequence[tuple[int, int]],
) -> list[ApproximationReport]:
    """Relative error of nearest-bank evaluation, per bank grid.

    For every frame of every trace the exact-projection quality q and
    the nearest-mask quality q' share the same grade map; the error is
    |q' - q| / q, and frames with q = 0 are excluded from the mean and
    counted.
    """
    if not traces:
        raise ValueError("no traces given")
    vaqm_config = replace(config, method=METHOD_VAQM, avaqm_grid=None)
    selectors = _hq_selectors(config)
    exact_q: list[np.ndarray] = []
    variant_series: list[np.ndarray] = []
    direction_series: list[np.ndarray] = []
    for trace in traces:
        timeline = evaluate_session(trace, vaqm_config)
        exact_q.append(np.array([f.q_frame for f in timeline.frames]))
        variant_series.append(_variant_per_frame(trace, config))
        direction_series.append(_trace_directions(trace))
    reports = []
    for grid_dims in grids:
        centers_xyz, center_sums = _bank_tile_sums(config, grid_dims)
        errors = []
        excluded = 0
        for q, variants, directions in zip(exact_q, variant_series, direction_series):
            nearest = np.argmax(directions @ centers_xyz.T, axis=1)
            approx = np.array(
                [
                    _pooled(center_sums[nearest[i]], selectors[variants[i]], config)[0]
                    for i in range(variants.size)
                ]
            )
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


def load_batch_manifest(path: str) -> list[dict]:
    """Batch run description: JSON list of {trace, content, segment_ms, ...}."""
    with open(path) as handle:
        raw = json.load(handle)
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path}: manifest must be a non-empty JSON list")
    entries = []
    for position, entry in enumerate(raw):
        if not isinstance(entry, dict) or ("trace" not in entry and "synthetic" not in entry):
            raise ValueError(
                f"{path}: entry {position} needs a 'trace' path or a 'synthetic' generator spec"
            )
        entries.append(entry)
    return entries


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
        "n_frames": len(timeline.frames),
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
