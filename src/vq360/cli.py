"""Command-line interface.

Subcommands: ``mask`` exports a projected or exact viewport mask,
``evaluate`` scores one session trace, ``study`` runs batch experiments
from a manifest and emits aggregate tables, and ``synth-trace``
generates a seeded random walk.  Angles are degrees, segment lengths
are milliseconds.  Exit codes: 2 for usage errors, 3 for malformed
data, 4 for I/O failures.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

from .geometry import (
    FieldOfView,
    Resolution,
    SphericalPoint,
    equivalent_pixels_viewport,
)
from .grade import FOOTPRINT_AREA_NEIGHBORS, FOOTPRINT_RULES, load_footprint_json, variant_layout_26
from .pooling import (
    DEFAULT_T_Q,
    NORMALIZATION_ANALYTIC,
    NORMALIZATION_MASK_AREA,
    _atomic_write_bytes,
    write_frame_csv,
)
from .session import (
    DEFAULT_FPS,
    METHOD_AVAQM,
    METHOD_VAQM,
    SessionConfig,
    approximation_error_study,
    evaluate_session,
    load_batch_manifest,
    parse_trace,
    pool_session,
    segment_frames,
    session_geometries,
    session_report,
    synthetic_trace,
    write_trace_csv,
)

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

DEFAULT_RESOLUTION = "3840x1920"
DEFAULT_FOV = "100,85"
DEFAULT_STUDY_GRIDS = "3x6,5x10,10x20,20x40"


class UsageError(ValueError):
    """Flag combinations argparse cannot catch on its own."""


@contextmanager
def _flag_values():
    """Report the library's rejection of a value that came from a flag as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_pair(text: str, separator: str, what: str) -> tuple[float, float]:
    parts = text.split(separator)
    if len(parts) != 2:
        raise UsageError(f"expected {what} as A{separator}B, got {text!r}")
    try:
        values = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"expected numeric {what}, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"expected finite {what}, got {text!r}")
    return values


def _parse_resolution(text: str) -> Resolution:
    w, h = _parse_pair(text, "x", "resolution")
    if w != int(w) or h != int(h):
        raise UsageError(f"resolution must be integral, got {text!r}")
    with _flag_values():
        return Resolution(int(w), int(h))


def _parse_grid(text: str) -> tuple[int, int]:
    r, c = _parse_pair(text, "x", "grid")
    if r != int(r) or c != int(c) or r < 1 or c < 1:
        raise UsageError(f"grid must be positive integers RxC, got {text!r}")
    return int(r), int(c)


def _parse_pog(text: str) -> SphericalPoint:
    theta, phi = _parse_pair(text, ",", "PoG")
    return SphericalPoint(theta, phi)


def _parse_fov(text: str) -> FieldOfView:
    theta, phi = _parse_pair(text, ",", "FoV")
    with _flag_values():
        return FieldOfView(theta, phi)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fov", default=DEFAULT_FOV, help="horizontal,vertical field of view in degrees")
    parser.add_argument("--resolution", default=DEFAULT_RESOLUTION, help="frame size as WIDTHxHEIGHT pixels")


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    _add_common_flags(parser)
    parser.add_argument(
        "--segment-ms",
        type=float,
        default=500.0,
        help="segment length in milliseconds; in study, only of the error table's variant schedule",
    )
    parser.add_argument("--fps", type=float, default=DEFAULT_FPS, help="trace frame rate in frames per second")
    parser.add_argument(
        "--convention",
        default="y-up",
        choices=("y-up", "z-up"),
        help="axis convention for quaternion traces",
    )
    parser.add_argument(
        "--method",
        default=METHOD_VAQM,
        choices=(METHOD_VAQM, METHOD_AVAQM),
        help="project the mask per frame (vaqm) or reuse the nearest precomputed mask (avaqm)",
    )
    parser.add_argument("--grid", help="bank grid as ROWSxCOLS (avaqm)")
    parser.add_argument(
        "--footprint",
        default="area+neighbors",
        help="HQ footprint: area-only, area+neighbors, or a JSON file path",
    )
    parser.add_argument("--t-q", type=float, default=DEFAULT_T_Q, help="quality threshold in [0,1]")
    parser.add_argument(
        "--normalization",
        default=NORMALIZATION_MASK_AREA,
        choices=(NORMALIZATION_MASK_AREA, NORMALIZATION_ANALYTIC),
        help="divide by the mask weight sum or by the closed-form viewport pixel count",
    )


def _session_config(args, res: Resolution, fov: FieldOfView) -> SessionConfig:
    """Session config from the flags alone.  A --footprint file's mapping
    replaces the default rule in _read_footprint, once every flag is checked."""
    grid = _parse_grid(args.grid) if args.grid else None
    if (args.method == METHOD_AVAQM) != (grid is not None):
        raise UsageError("--method avaqm needs a bank grid (--grid ROWSxCOLS), and --grid needs --method avaqm")
    # Every field comes from a flag.
    with _flag_values():
        return SessionConfig(
            segment_ms=args.segment_ms,
            fov=fov,
            resolution=res,
            layout=variant_layout_26(res),
            hq_footprint=args.footprint if args.footprint in FOOTPRINT_RULES else FOOTPRINT_AREA_NEIGHBORS,
            avaqm_grid=grid,
            t_q=args.t_q,
            normalization=args.normalization,
        )


def _read_footprint(config: SessionConfig, footprint: str) -> SessionConfig:
    """The config with a --footprint file's mapping; errors name the file."""
    if footprint in FOOTPRINT_RULES:
        return config
    mapping = load_footprint_json(footprint)
    try:
        return replace(config, hq_footprint=mapping)
    except ValueError as exc:
        raise ValueError(f"{footprint}: {exc}") from None


def cmd_mask(args) -> int:
    # The dense raster path, which no other command runs.
    from .mask import DEFAULT_SAMPLES_PER_SIDE, exact_mask, project_viewport, write_mask_npz, write_mask_pgm

    res = _parse_resolution(args.resolution)
    fov = _parse_fov(args.fov)
    pog = _parse_pog(args.pog)
    with _flag_values():
        if args.exact:
            mask = exact_mask(pog, fov, res)
        else:
            samples = DEFAULT_SAMPLES_PER_SIDE if args.samples is None else args.samples
            mask = project_viewport(pog, fov, res, samples)
    closed_form = equivalent_pixels_viewport(res, fov)
    write_mask_pgm(mask, args.out)
    if args.npz:
        write_mask_npz(mask, args.npz)
    print(f"mask written to {args.out}")
    print(f"area (weight sum): {mask.area:.1f} equivalent pixels")
    print(
        f"closed-form viewport size: {closed_form:.1f} equivalent pixels "
        f"({100.0 * (mask.area - closed_form) / closed_form:+.3f}% raster deviation)"
    )
    return 0


def _load_trace(args, path: str):
    return parse_trace(path, fps=args.fps, convention=args.convention)


def cmd_evaluate(args) -> int:
    res = _parse_resolution(args.resolution)
    fov = _parse_fov(args.fov)
    config = _session_config(args, res, fov)
    with _flag_values():
        segment_frames(config.segment_ms, args.fps)
    config = _read_footprint(config, args.footprint)
    trace = _load_trace(args, args.trace)
    timeline = evaluate_session(trace, config)
    frame_csv = args.out_prefix + "_frames.csv"
    summary_json = args.out_prefix + "_summary.json"
    write_frame_csv(timeline.q_frame, frame_csv)
    report = session_report(timeline, config, trace, frame_csv=os.path.basename(frame_csv))
    _atomic_write_bytes(summary_json, (json.dumps(report, indent=2) + "\n").encode("ascii"))
    print(f"q_window = {timeline.q_window:.6f}")
    print(f"f_window = {timeline.f_window:.2f}% at t_q = {timeline.threshold}")
    print(f"wrote {frame_csv} and {summary_json}")
    return 0


def _manifest_trace(entry: dict, position: int, args, segments: list[float]):
    """The entry's trace, once each segment length it is scored under is
    checked to hold whole frames at its rate; recipe and length errors
    name the entry, trace file errors the file."""
    if "trace" in entry:
        trace = _load_trace(args, entry["trace"])
    try:
        if "synthetic" in entry:
            trace = synthetic_trace(**{"fps": args.fps, **entry["synthetic"]})
        for segment_ms in segments:
            segment_frames(segment_ms, trace.frames_per_second)
    except ValueError as exc:
        raise ValueError(f"{args.manifest}: entry {position}: {exc}") from None
    return trace


def _segment_list(entry: dict, default: list[float]) -> list[float]:
    raw = entry.get("segment_ms", default)
    return [float(s) for s in (raw if isinstance(raw, list) else [raw])]


def _write_table(path: str, rows: list[tuple]) -> None:
    """CSV with minimal quoting: a label holding a comma, quote or line feed stays one field."""
    import csv

    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _atomic_write_bytes(path, text.getvalue().encode("utf-8"))


def cmd_study(args) -> int:
    res = _parse_resolution(args.resolution)
    fov = _parse_fov(args.fov)
    grids = [_parse_grid(g) for g in args.grids.split(",")] if args.grids else []
    try:
        default_segments = [float(s) for s in args.segments.split(",")]
    except ValueError:
        raise UsageError(f"expected segment lengths as MS,MS,..., got {args.segments!r}") from None
    base_config = _session_config(args, res, fov)
    if not (math.isfinite(args.fps) and args.fps > 0.0):
        raise UsageError(f"frame rate must be positive and finite, got {args.fps}")
    with _flag_values():
        # The config's own check, before the manifest is read; whole frames
        # at each trace's frame rate are checked per trace.
        configs = {segment_ms: replace(base_config, segment_ms=segment_ms) for segment_ms in default_segments}
    if args.footprint not in FOOTPRINT_RULES:
        # Those configs hold the default rule in place of the file's mapping.
        base_config = _read_footprint(base_config, args.footprint)
        configs.clear()
    entries = load_batch_manifest(args.manifest)
    os.makedirs(args.out, exist_ok=True)

    segment_lists = [_segment_list(entry, default_segments) for entry in entries]
    # The error table's schedule uses --segment-ms.
    extra = [base_config.segment_ms] if grids else []
    traces = [_manifest_trace(e, i, args, s + extra) for i, (e, s) in enumerate(zip(entries, segment_lists))]
    # Stage 1 once for all traces serves every segment length and, for
    # vaqm, the exact side of the error study.
    geometries = session_geometries(traces, base_config)
    by_key: dict[tuple[str, float], list] = {}
    for i, (entry, trace, geometry, segments) in enumerate(zip(entries, traces, geometries, segment_lists)):
        content = entry.get("content", f"entry{i}")
        for segment_ms in segments:
            if segment_ms not in configs:
                configs[segment_ms] = replace(base_config, segment_ms=segment_ms)
            timeline = pool_session(trace, configs[segment_ms], geometry)
            by_key.setdefault((content, segment_ms), []).append(timeline)
    rows = [("content", "segment_ms", "n_sessions", "q_window_mean", "f_window_mean")]
    for content, segment_ms in sorted(by_key):
        group = by_key[(content, segment_ms)]
        q = sum(t.q_window for t in group) / len(group)
        f = sum(t.f_window for t in group) / len(group)
        rows.append((content, f"{segment_ms:g}", len(group), f"{q:.6f}", f"{f:.4f}"))
    segment_table = os.path.join(args.out, "segment_table.csv")
    _write_table(segment_table, rows)
    written = [segment_table]

    if grids:
        exact = geometries if base_config.method == METHOD_VAQM else None
        reports = approximation_error_study(traces, base_config, grids, exact)
        rows = [("grid_rows", "grid_cols", "mean_relative_error_percent", "excluded_frames")]
        rows += [(r.grid_rows, r.grid_cols, f"{r.mean_relative_error:.6f}", r.excluded_frames) for r in reports]
        error_table = os.path.join(args.out, "error_table.csv")
        _write_table(error_table, rows)
        written.append(error_table)
    print("wrote " + " and ".join(written))
    return 0


def cmd_synth_trace(args) -> int:
    with _flag_values():
        trace = synthetic_trace(
            duration_s=args.duration_s,
            fps=args.fps,
            speed_deg_per_s=args.speed,
            dwell_probability=args.dwell,
            seed=args.seed,
            turn_sigma_deg=args.turn_sigma,
        )
    write_trace_csv(trace, args.out)
    print(f"wrote {trace.n_frames} frames to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vq360",
        description="Viewport quality of 360 video sessions on equirectangular frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="export a viewport mask raster")
    _add_common_flags(p)
    # Unset, it reads mask.DEFAULT_SAMPLES_PER_SIDE when cmd_mask runs.
    p.add_argument(
        "--samples",
        type=int,
        help="boundary samples per viewport side (ignored with --exact)",
    )
    p.add_argument("--pog", required=True, help="point of gaze as theta,phi in degrees")
    p.add_argument("--exact", action="store_true", help="use the per-pixel membership oracle")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--npz", help="also write a lossless NPZ raster")
    p.set_defaults(handler=cmd_mask)

    p = sub.add_parser("evaluate", help="score one head-movement trace")
    _add_session_flags(p)
    p.add_argument("--trace", required=True, help="trace CSV (canonical or quaternion header)")
    p.add_argument("--out-prefix", required=True, help="prefix for _frames.csv and _summary.json")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("study", help="batch sessions and aggregate tables from a manifest")
    _add_session_flags(p)
    p.add_argument("--manifest", required=True, help="JSON list of {trace|synthetic, content, segment_ms}")
    p.add_argument("--out", required=True, help="output directory for CSV tables")
    p.add_argument(
        "--segments",
        default="500,2000,6000",
        help="segment lengths in ms for entries that do not specify their own",
    )
    p.add_argument(
        "--grids",
        default=DEFAULT_STUDY_GRIDS,
        help="bank grids for the error table, e.g. 3x6,5x10 (empty string to skip)",
    )
    p.set_defaults(handler=cmd_study)

    p = sub.add_parser("synth-trace", help="generate a seeded random-walk trace CSV")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--duration-s", type=float, default=60.0, help="duration in seconds")
    p.add_argument("--fps", type=float, default=DEFAULT_FPS, help="frames per second")
    p.add_argument("--speed", type=float, default=45.0, help="angular speed in degrees per second")
    p.add_argument("--dwell", type=float, default=0.2, help="per-frame probability of not moving")
    p.add_argument("--turn-sigma", type=float, default=20.0, help="heading diffusion in degrees per step")
    p.add_argument("--out", required=True, help="output trace CSV")
    p.set_defaults(handler=cmd_synth_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
