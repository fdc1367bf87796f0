"""Output checks, the exact-mask oracle and the workload-property counters.

Everything here goes through vq360's public functions, so it states what
the program must compute without depending on how it computes it.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from vq360 import (
    CartesianVector,
    FieldOfView,
    Resolution,
    SessionConfig,
    SphericalPoint,
    active_variant,
    angular_distance_deg,
    bank_centers,
    binary_grade_map,
    evaluate_session,
    exact_mask,
    exact_membership,
    frame_quality,
    nearest_center_index,
    parse_trace,
    spherical_to_cartesian,
    synthetic_trace,
    variant_layout_26,
)

from fixtures import PROBES, angle_between_deg, unit_vectors
from workloads import FPS, SEGMENT_MS, Workload

Q_TOLERANCE = 1e-9
# vq360 writes q_frame = 1.0000000000000002 on some full-viewport frames
# (summation order); the range check allows that rounding and
# pooling.q_over_one_frames counts it.
Q_RANGE_SLACK = 1e-12
ROUND_TRIP_LIMIT_DEG = 1e-9
# A per-frame disagreement with the exact mask beyond this is a defect,
# not rasterization: at this commit it is about 3e-5.
ORACLE_LIMIT = 1e-3
# segment_table.csv prints q with 6 decimals and f with 4.
TABLE_Q_TOLERANCE = 0.5e-6 + Q_TOLERANCE
TABLE_F_TOLERANCE = 0.5e-4 + Q_TOLERANCE
PROPERTY_SAMPLE = 2400
SEAM_STEP_DEG = 0.5


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _fov() -> FieldOfView:
    return FieldOfView(100.0, 85.0)


def _config(workload: Workload, segment_ms: float = SEGMENT_MS) -> SessionConfig:
    res = Resolution(*workload.resolution)
    return SessionConfig(segment_ms=segment_ms, fov=_fov(), resolution=res, layout=variant_layout_26(res))


def load_traces(workload: Workload) -> tuple[list, float]:
    """Each session's trace as vq360 reads it, and the largest angle in
    degrees between a parsed frame and the direction the benchmark wrote."""
    traces = []
    worst = 0.0
    for session in workload.sessions:
        if session.path is None:
            trace = synthetic_trace(**session.synthetic, fps=FPS)
        else:
            trace = parse_trace(session.path, fps=FPS, convention="y-up")
        _require(trace.n_frames == session.n_frames, f"{session.label}: read {trace.n_frames} frames")
        if session.theta is not None:
            theta = np.array([p.theta_deg for p in trace.samples])
            phi = np.array([p.phi_deg for p in trace.samples])
            error = angle_between_deg(unit_vectors(theta, phi), unit_vectors(session.theta, session.phi))
            worst = max(worst, float(error.max()))
        traces.append(trace)
    _require(worst <= ROUND_TRIP_LIMIT_DEG, f"parsed trace is {worst:.3g} deg off the written directions")
    return traces, worst


def check_evaluate(out: str, n_frames: int) -> np.ndarray:
    """Check one evaluate run's frame CSV and summary; return q per frame."""
    with open(os.path.join(out, "run_frames.csv"), newline="") as handle:
        rows = list(csv.reader(handle))
    _require(rows[0] == ["frame", "q_frame"], f"frame CSV header {rows[0]}")
    _require(len(rows) - 1 == n_frames, f"frame CSV has {len(rows) - 1} rows for {n_frames} frames")
    _require([int(r[0]) for r in rows[1:]] == list(range(n_frames)), "frame CSV rows out of order")
    q = np.array([float(r[1]) for r in rows[1:]])
    _require(bool(np.all((q >= -Q_RANGE_SLACK) & (q <= 1.0 + Q_RANGE_SLACK))), "q_frame outside [0, 1]")
    with open(os.path.join(out, "run_summary.json")) as handle:
        summary = json.load(handle)
    _require(summary["n_frames"] == n_frames, f"summary n_frames {summary['n_frames']}")
    _require(abs(summary["q_window"] - q.mean()) <= Q_TOLERANCE, "q_window is not the mean of q_frame")
    above = 100.0 * np.count_nonzero(q > summary["t_q"]) / n_frames
    _require(abs(summary["f_window"] - above) <= Q_TOLERANCE, "f_window is not the share of frames above t_q")
    return q


def _read_table(path: str, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    _require(rows[0] == header, f"{os.path.basename(path)} header {rows[0]}")
    return rows[1:]


def check_study(out: str, workload: Workload) -> tuple[dict, int]:
    """Check one study run's tables; return the segment rows keyed by
    (content, segment_ms) and the error study's excluded-frame count."""
    rows = _read_table(
        os.path.join(out, "segment_table.csv"),
        ["content", "segment_ms", "n_sessions", "q_window_mean", "f_window_mean"],
    )
    table = {(r[0], float(r[1])): (float(r[3]), float(r[4])) for r in rows if r[2] == "1"}
    expected = {(s.label, seg) for s in workload.sessions for seg in workload.segments_ms}
    _require(len(rows) == len(expected) and set(table) == expected, "segment table rows do not match the manifest")
    for q, f in table.values():
        _require(0.0 <= q <= 1.0 and 0.0 <= f <= 100.0, "segment table value out of range")
    errors = _read_table(
        os.path.join(out, "error_table.csv"),
        ["grid_rows", "grid_cols", "mean_relative_error_percent", "excluded_frames"],
    )
    _require([(int(r[0]), int(r[1])) for r in errors] == list(workload.error_grids), "error table grids")
    _require(all(math.isfinite(float(r[2])) and float(r[2]) >= 0.0 for r in errors), "error table value")
    _require(len({r[3] for r in errors}) == 1, "excluded frames differ between grids")
    return table, int(errors[0][3])


def check_segment_table(table: dict, workload: Workload, traces: list) -> dict:
    """Each segment-table row must equal evaluate_session on the same
    trace and segment length.  Returns the 500 ms q series per session."""
    series = {}
    for session, trace in zip(workload.sessions, traces):
        for segment_ms in workload.segments_ms:
            timeline = evaluate_session(trace, _config(workload, segment_ms))
            q, f = table[(session.label, segment_ms)]
            _require(
                abs(q - timeline.q_window) <= TABLE_Q_TOLERANCE and abs(f - timeline.f_window) <= TABLE_F_TOLERANCE,
                f"segment table row {session.label},{segment_ms:g} differs from evaluate_session",
            )
            if segment_ms == SEGMENT_MS:
                series[session.label] = np.array([fr.q_frame for fr in timeline.frames])
    return series


def oracle_max_abs_dq(workload: Workload, trace, q: np.ndarray) -> float:
    """Max |q_frame - q_oracle| over the probe frames that open the first trace.

    The oracle scores a frame with exact_mask at its PoG (vaqm) or at its
    nearest bank center (avaqm), graded by the active variant's binary
    grade map under the default 500 ms segments.  The probes are the same
    for every seed, so the value repeats exactly.
    """
    res = Resolution(*workload.resolution)
    fov = _fov()
    config = _config(workload)
    centers = bank_centers(*workload.grid) if workload.method == "avaqm" else None
    grades = {}
    masks = {}
    worst = 0.0
    for i in range(len(PROBES)):
        pog = trace.samples[i]
        if centers is not None:
            pog = centers[nearest_center_index(centers, pog)]
        variant = active_variant(trace, config, i)
        if variant not in grades:
            grades[variant] = binary_grade_map(config.layout, variant)
        if pog not in masks:
            masks[pog] = exact_mask(pog, fov, res)
        oracle = frame_quality(masks[pog], grades[variant]).q_frame
        worst = max(worst, abs(float(q[i]) - oracle))
    _require(worst <= ORACLE_LIMIT, f"q_frame is {worst:.3g} off the exact-mask oracle")
    return worst


def _corner_deg(fov: FieldOfView) -> float:
    """Angle from the viewport center to its corners."""
    a = math.tan(math.radians(fov.theta_deg / 2.0))
    b = math.tan(math.radians(fov.phi_deg / 2.0))
    return math.degrees(math.atan(math.hypot(a, b)))


def workload_properties(workload: Workload, traces: list) -> dict[str, float]:
    """What the input asks of the geometry, over an even stride of at most
    PROPERTY_SAMPLE frames: viewports holding a pole, viewports crossing
    the theta = 0/360 seam, and the distance from each PoG to its nearest
    center of the workload's bank grid (10x20 where it has none)."""
    fov = _fov()
    pogs = [p for trace in traces for p in trace.samples]
    sample = pogs[:: math.ceil(len(pogs) / PROPERTY_SAMPLE)]
    poles = (CartesianVector(0.0, 0.0, 1.0), CartesianVector(0.0, 0.0, -1.0))
    seam = [spherical_to_cartesian(SphericalPoint(0.0, k * SEAM_STEP_DEG)) for k in range(int(180 / SEAM_STEP_DEG) + 1)]
    seam_xyz = np.array([v.as_array() for v in seam])
    reach = math.cos(math.radians(_corner_deg(fov) + 1.0))
    centers = bank_centers(*workload.snap_grid)
    pole_count = seam_count = 0
    snap = []
    for pog in sample:
        pole_count += any(exact_membership(v, pog, fov) for v in poles)
        dots = seam_xyz @ spherical_to_cartesian(pog).as_array()
        near = [j for j in np.argsort(-dots) if dots[j] >= reach]
        seam_count += any(exact_membership(seam[j], pog, fov) for j in near)
        snap.append(angular_distance_deg(pog, centers[nearest_center_index(centers, pog)]))
    snap = np.array(snap)
    return {
        "trace.frames": len(pogs),
        "trace.pole_share": pole_count / len(sample),
        "trace.seam_share": seam_count / len(sample),
        "avaqm.snap_deg.mean": float(snap.mean()),
        "avaqm.snap_deg.p95": float(np.quantile(snap, 0.95)),
        "avaqm.snap_deg.max": float(snap.max()),
    }
