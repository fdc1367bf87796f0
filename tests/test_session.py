"""Tests for trace handling, segment adaptation and session evaluation."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vq360 import session as session_module
from vq360.geometry import (
    FieldOfView,
    Resolution,
    SphericalPoint,
    angular_distance_deg,
    row_centers_deg,
    spherical_to_cartesian_arrays,
)
from vq360.grade import binary_grade_map, variant_layout_26
from vq360.mask import exact_mask
from vq360.pooling import frame_quality, make_timeline
from vq360.session import (
    SessionConfig,
    SessionTrace,
    _load_columns,
    _tile_weight_sums,
    _variant_per_frame,
    active_variant,
    approximation_error_study,
    bank_centers,
    evaluate_session,
    load_batch_manifest,
    nearest_center_index,
    parse_trace,
    pool_session,
    segment_frames,
    session_geometries,
    session_report,
    synthetic_trace,
    write_trace_csv,
)
from vq360.spans import _gazes, _project_spans

from reference import full_width_spans, nearest_centers, quaternion_directions

RES = Resolution(960, 480)
FOV = FieldOfView(100.0, 85.0)
LAYOUT = variant_layout_26(RES)


def base_config(**overrides):
    kwargs = dict(segment_ms=500.0, fov=FOV, resolution=RES, layout=LAYOUT)
    kwargs.update(overrides)
    return SessionConfig(**kwargs)


def points_trace(fps, points):
    """A trace with one PoG per frame, from SphericalPoints."""
    return SessionTrace(fps, [p.theta_deg for p in points], [p.phi_deg for p in points])


def center_vectors(centers):
    """Unit vectors of SphericalPoints, shape (points, 3), from arrays of
    their angles."""
    theta = np.array([c.theta_deg for c in centers])
    phi = np.array([c.phi_deg for c in centers])
    return np.stack(spherical_to_cartesian_arrays(theta, phi), axis=1)


def area_under(layout, theta_deg, phi_deg):
    """Area holding a PoG, written out: the pixel is the direction's share
    of the frame, truncated and clamped to the last column and row; the
    tile is the pixel floor-divided by the tile size, clamped so remainder
    pixels join the last tile row and column; the area is the one listing
    that tile."""
    res, grid = layout.grid.resolution, layout.grid
    col = min(int(theta_deg / 360.0 * res.n_h), res.n_h - 1)
    row = min(int(phi_deg / 180.0 * res.n_v), res.n_v - 1)
    tile = (min(row // (res.n_v // grid.rows), grid.rows - 1), min(col // (res.n_h // grid.cols), grid.cols - 1))
    return next(index for index, area in enumerate(layout.areas) if tile in area)


def same_series(a, b):
    """Two timelines hold the same bits, frame for frame."""
    return np.array_equal(a.q_frame, b.q_frame) and np.array_equal(a.mask_area, b.mask_area)


def _dense_bank(config):
    """Bank centers of an avaqm config, each with its exact-oracle mask."""
    centers = bank_centers(*config.avaqm_grid)
    return centers, [exact_mask(c, config.fov, config.resolution) for c in centers]


def _evaluate_session_dense(trace, config):
    """Reference evaluation through the public mask/pooling API.

    Every frame is scored with the per-pixel membership oracle's mask:
    at its PoG (vaqm) or at the nearest bank center (avaqm).
    """
    grades = [
        binary_grade_map(config.layout, v, config.hq_footprint)
        for v in range(config.layout.variant_count)
    ]
    bank = _dense_bank(config) if config.method == "avaqm" else None
    q, area = [], []
    for index, pog in enumerate(trace.samples):
        if bank is None:
            mask = exact_mask(pog, config.fov, config.resolution)
        else:
            centers, masks = bank
            mask = masks[nearest_center_index(centers, pog)]
        grade = grades[active_variant(trace, config, index)]
        frame = frame_quality(mask, grade, config.normalization, frame_index=index)
        q.append(frame.q_frame)
        area.append(frame.mask_area_used)
    return make_timeline(np.array(q), np.array(area), config.t_q)


# ---------------------------------------------------------------------------
# synthetic traces
# ---------------------------------------------------------------------------


def test_synthetic_trace_is_deterministic():
    first = synthetic_trace(duration_s=2.0, fps=30.0, seed=5)
    second = synthetic_trace(duration_s=2.0, fps=30.0, seed=5)
    assert first.samples == second.samples
    other = synthetic_trace(duration_s=2.0, fps=30.0, seed=6)
    assert first.samples != other.samples


def test_synthetic_trace_step_sizes():
    """Each frame either dwells or advances by speed / fps degrees."""
    speed, fps = 45.0, 30.0
    trace = synthetic_trace(duration_s=4.0, fps=fps, speed_deg_per_s=speed, seed=9)
    assert trace.n_frames == 120
    step = speed / fps
    moved = dwelled = 0
    for a, b in zip(trace.samples, trace.samples[1:]):
        d = angular_distance_deg(a, b)
        if d < 1e-6:
            dwelled += 1
        else:
            assert d == pytest.approx(step, abs=1e-5)
            moved += 1
    assert moved > 0 and dwelled > 0


def test_synthetic_trace_validation():
    with pytest.raises(ValueError):
        synthetic_trace(duration_s=0.0, fps=30.0)
    with pytest.raises(ValueError):
        synthetic_trace(dwell_probability=1.5)
    with pytest.raises(ValueError):
        synthetic_trace(speed_deg_per_s=-1.0)


@pytest.mark.parametrize("name", ["speed_deg_per_s", "turn_sigma_deg"])
@pytest.mark.parametrize("value", [-1.0, -0.001, math.inf, -math.inf, math.nan])
def test_synthetic_trace_names_a_bad_speed_or_turn_sigma(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be non-negative and finite, got {value}$"):
        synthetic_trace(duration_s=1.0, **{name: value})
    # Zero is a still gaze or a straight walk.
    assert synthetic_trace(duration_s=1.0, **{name: 0.0}).n_frames == 30


def test_trace_arrays_normalize_like_points():
    theta = [-30.0, 370.0, -1e-20, 0.0, -0.0, 359.999]
    phi = [-5.0, 190.0, 90.0, 0.0, 180.0, 45.0]
    trace = SessionTrace(10.0, theta, phi)
    expected = tuple(SphericalPoint(t, p) for t, p in zip(theta, phi))
    for point, want in zip(trace.samples, expected):
        # -1e-20 wraps to 360 in SphericalPoint and to 0 in the trace: the same direction.
        assert point.theta_deg == want.theta_deg % 360.0 and point.phi_deg == want.phi_deg
    assert trace.samples is trace.samples
    assert points_trace(10.0, expected).samples == trace.samples
    with pytest.raises(ValueError):
        trace.theta_deg[0] = 1.0
    assert trace == trace and trace != SessionTrace(10.0, theta, phi)
    assert len({trace, trace}) == 1


def test_trace_validation():
    with pytest.raises(ValueError, match="no samples"):
        SessionTrace(10.0, [], [])
    with pytest.raises(ValueError, match="equal length"):
        SessionTrace(10.0, [1.0, 2.0], [3.0])
    with pytest.raises(ValueError, match="finite"):
        SessionTrace(10.0, [1.0, math.nan], [3.0, 4.0])
    for fps in (0.0, -30.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="frame rate must be positive and finite"):
            SessionTrace(fps, [1.0], [3.0])


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    trace = synthetic_trace(duration_s=1.0, fps=25.0, seed=3)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    loaded = parse_trace(str(path), fps=25.0)
    assert loaded.frames_per_second == 25.0
    assert loaded.n_frames == trace.n_frames
    for a, b in zip(trace.samples, loaded.samples):
        assert a.theta_deg == pytest.approx(b.theta_deg, abs=1e-12)
        assert a.phi_deg == pytest.approx(b.phi_deg, abs=1e-12)


def test_parse_trace_accepts_rows_in_any_order(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("frame,theta_deg,phi_deg\n2,30,60\n0,10,40\n\n1,20,50\n")
    trace = parse_trace(str(path))
    assert trace.theta_deg.tolist() == [10.0, 20.0, 30.0]
    assert trace.phi_deg.tolist() == [40.0, 50.0, 60.0]
    half = math.sqrt(0.5)
    path.write_text(f"frame,qw,qx,qy,qz\n1,{half},0,{half},0\n0,1,0,0,0\n")
    trace = parse_trace(str(path))
    assert trace.theta_deg == pytest.approx([180.0, 90.0], abs=1e-9)


def test_parse_trace_errors(tmp_path):
    path = tmp_path / "trace.csv"

    path.write_text("frame,theta_deg,phi_deg\n0,10,45\n0,11,46\n")
    with pytest.raises(ValueError, match=r"trace.csv:3: duplicate frame 0"):
        parse_trace(str(path))

    # Line numbers count the lines of the file, blank ones included.
    path.write_text("frame,theta_deg,phi_deg\n1,10,45\n\n0,11,46\n1,12,47\n")
    with pytest.raises(ValueError, match=r"trace.csv:5: duplicate frame 1"):
        parse_trace(str(path))

    path.write_text("frame,theta_deg,phi_deg\n0,10,45\n1,11\n")
    with pytest.raises(ValueError, match=r"trace.csv:3: malformed"):
        parse_trace(str(path))

    path.write_text("frame,theta_deg,phi_deg\n0,10,45\n1.0,11,46\n")
    with pytest.raises(ValueError, match=r"trace.csv:3: malformed"):
        parse_trace(str(path))

    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"frame,theta_deg,phi_deg\n0,10,45\n1,11,46\n2,12,{bad}\n")
        with pytest.raises(ValueError, match=r"trace.csv:4: non-finite value"):
            parse_trace(str(path))

    path.write_text("frame,theta_deg,phi_deg\n0,10,45\n2,11,46\n")
    with pytest.raises(ValueError, match="missing frame 1"):
        parse_trace(str(path))

    path.write_text("frame,theta_deg,phi_deg\n0,ten,45\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_trace(str(path))

    path.write_text("frame,theta_deg,phi_deg\n")
    with pytest.raises(ValueError, match="empty trace"):
        parse_trace(str(path))

    path.write_text("time,yaw,pitch\n0,0,0\n")
    with pytest.raises(ValueError, match="unrecognized header"):
        parse_trace(str(path))

    path.write_text("frame,theta_deg,phi_deg\n0,10,45\n")
    with pytest.raises(ValueError, match="axis convention"):
        parse_trace(str(path), convention="x-up")


ANGLES = "frame,theta_deg,phi_deg\n"
QUATERNIONS = "frame,qw,qx,qy,qz\n"
HALF = repr(math.sqrt(0.5))
MALFORMED = ": malformed row"

# (name, file text, outcome): the trace's (theta, phi) lists, or what the
# message says after the file's path.  One row per non-empty line: an
# integer frame and the header's values as plain numbers, spaces around
# a number allowed.  Quotes, extra fields, rows of only spaces or blank
# fields, and the "_" separators and non-ASCII digits that int() and
# float() read are refused at their line.
PARSE_CORPUS = [
    ("plain", ANGLES + "0,10,45\n1,11.5,46\n", ([10.0, 11.5], [45.0, 46.0])),
    ("plus sign", ANGLES + "+1,10,+45\n0,-10,46\n", ([350.0, 10.0], [46.0, 45.0])),
    ("padded fields", ANGLES + " 1 , 10 , 45 \n\t0\t,11,46\n", ([11.0, 10.0], [46.0, 45.0])),
    ("bare points", ANGLES + "0,1.,.5\n", ([1.0], [0.5])),
    (
        "exponents and extremes",
        ANGLES + "0,1E5,2e-3\n1,5e-324,-0.0\n2,1e-400,0\n",
        ([280.0, 5e-324, 0.0], [2e-3, -0.0, 0.0]),
    ),
    ("crlf", "frame,theta_deg,phi_deg\r\n0,10,45\r\n1,11,46\r\n", ([10.0, 11.0], [45.0, 46.0])),
    ("lone cr", "frame,theta_deg,phi_deg\r0,10,45\r1,11,46\r", ([10.0, 11.0], [45.0, 46.0])),
    ("no final newline", ANGLES + "0,10,45\n1,11,46", ([10.0, 11.0], [45.0, 46.0])),
    ("blank lines", ANGLES + "\n1,10,45\n\n\n0,11,46\n\n", ([11.0, 10.0], [46.0, 45.0])),
    ("duplicate after blank lines", ANGLES + "1,10,45\n\n0,11,46\n\n1,12,47\n", ":6: duplicate frame 1"),
    ("missing frame", ANGLES + "0,10,45\n2,11,46\n", ": missing frame 1"),
    ("quaternions", QUATERNIONS + f"1,{HALF},0,{HALF},0\n0,1,0,0,0\n", ([180.0, 90.0], [90.0, 90.0])),
    (
        "non-unit quaternion after blank line",
        QUATERNIONS + "0,1,0,0,0\n\n1,2,0,0,0\n",
        ":4: non-unit quaternion (|q| = 2.000000) at frame 1",
    ),
    ("float frame", ANGLES + "0,10,45\n1.0,11,46\n", ":3" + MALFORMED),
    ("exponent frame", ANGLES + "1e3,10,45\n", ":2" + MALFORMED),
    ("frame beyond int64", ANGLES + "99999999999999999999,10,45\n", ":2" + MALFORMED),
    ("underscore value", ANGLES + "0,1_0,45\n", ":2" + MALFORMED),
    ("underscore frame", ANGLES + "1_0,10,45\n", ":2" + MALFORMED),
    ("non-ASCII digit value", ANGLES + "0,٣,45\n", ":2" + MALFORMED),
    ("non-ASCII digit frame", ANGLES + "0,10,45\n١,11,46\n", ":3" + MALFORMED),
    ("hex value", ANGLES + "0,0x10,45\n", ":2" + MALFORMED),
    ("quoted fields", ANGLES + '"1",10,45\n0,"11",46\n', ":2" + MALFORMED),
    ("hash in a field", ANGLES + "0,4 # c,45\n", ":2" + MALFORMED),
    ("whitespace-only row", ANGLES + "0,10,45\n   \n1,11,46\n", ":3" + MALFORMED),
    ("blank-field row", ANGLES + "0,10,45\n , , \n1,11,46\n", ":3" + MALFORMED),
    ("blank-field quaternion row", QUATERNIONS + "0,1,0,0,0\n , , , , \n1,1,0,0,0\n", ":3" + MALFORMED),
    ("extra column", ANGLES + "0,10,45,7\n1,11,46,x\n", ":2" + MALFORMED),
    ("trailing comma", ANGLES + "0,10,45,\n", ":2" + MALFORMED),
    ("too few columns", ANGLES + "0,10,45\n1,11\n", ":3" + MALFORMED),
    ("word value", ANGLES + "0,ten,45\n", ":2" + MALFORMED),
    ("nan", ANGLES + "0,10,45\n1,nan,46\n", ":3: non-finite value"),
    ("inf", QUATERNIONS + "0,1,0,0,0\n1,1,inf,0,0\n", ":3: non-finite value"),
    ("overflow to inf", ANGLES + "0,1e999,45\n", ":2: non-finite value"),
    (
        "last of 10,001 rows",
        ANGLES + "".join(f"{i},10,45\n" for i in range(10000)) + "10000,10,x\n",
        ":10002" + MALFORMED,
    ),
    ("header only", ANGLES, ": empty trace"),
    ("blank lines only", ANGLES + "\n\r\n\r", ": empty trace"),
    ("empty file", "", ": empty trace"),
    ("unknown header", "time,yaw,pitch\n0,0,0\n", ":1: unrecognized header 'time,yaw,pitch'"),
    (
        "quoted header",
        '"frame","theta_deg","phi_deg"\n0,10,45\n',
        ":1: unrecognized header '\"frame\",\"theta_deg\",\"phi_deg\"'",
    ),
    # Excel's "CSV UTF-8" starts the file with a byte-order mark.
    ("byte-order mark", "﻿" + ANGLES + "0,10,45\n", ":1: unrecognized header '\\ufeffframe,theta_deg,phi_deg'"),
]


@pytest.mark.parametrize("name, text, outcome", PARSE_CORPUS, ids=[case[0] for case in PARSE_CORPUS])
def test_parse_paths_agree(tmp_path, name, text, outcome):
    """Each file's parse agrees with its recorded outcome: the arrays, or
    the exact message with its line.  Angles are read exactly, subnormals
    and signed zeros included; quaternions go through trig."""
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as caught:
            parse_trace(str(path))
        assert str(caught.value) == str(path) + outcome
        return
    assert _load_columns(str(path))[2].flags.c_contiguous
    trace = parse_trace(str(path))
    got = (trace.theta_deg, trace.phi_deg)
    if text.startswith(QUATERNIONS):
        assert [a.tolist() for a in got] == [pytest.approx(want, abs=1e-9) for want in outcome]
    else:
        assert [a.tolist() for a in got] == list(outcome)
        assert [np.signbit(a).tolist() for a in got] == [np.signbit(want).tolist() for want in outcome]


@pytest.mark.parametrize("bad", [[0], [1], [500], [998], [999], [3, 700], [998, 999]])
def test_refused_row_search_is_logarithmic(tmp_path, monkeypatch, bad):
    """A refused file's first refused line is found in about log2(rows)
    np.loadtxt calls reading at most about as many rows as the file, not
    one call per row, wherever the bad rows lie."""
    rows = [f"{i},10,45\n" for i in range(1000)]
    for index in bad:
        rows[index] = f"{index},10,x\n"
    path = tmp_path / "trace.csv"
    path.write_text(ANGLES + "\n" + "".join(rows))
    calls = []
    trace_rows = session_module._trace_rows

    def counted(source, dtype):
        calls.append(len(source) if isinstance(source, list) else None)
        return trace_rows(source, dtype)

    monkeypatch.setattr(session_module, "_trace_rows", counted)
    with pytest.raises(ValueError) as caught:
        parse_trace(str(path))
    # The header, the blank line, then the rows.
    assert str(caught.value) == f"{path}:{bad[0] + 3}{MALFORMED}"
    assert calls[0] is None and len(calls) <= 2 + math.ceil(math.log2(1000))
    assert sum(calls[1:]) <= 1001


def test_parse_error_lines_count_blank_lines(tmp_path):
    """Errors name the file line, blank lines included; a line of blank
    fields is a malformed row, not a blank line."""
    path = tmp_path / "trace.csv"
    path.write_text(ANGLES + "1,10,45\n\n0,11,46\n\n1,12,47\n")
    with pytest.raises(ValueError, match=r"trace.csv:6: duplicate frame 1"):
        parse_trace(str(path))
    path.write_text(ANGLES + "1,10,45\n\n0,11,46\n , , \n1,12,47\n")
    with pytest.raises(ValueError, match=r"trace.csv:5: malformed row"):
        parse_trace(str(path))


def test_quaternion_identity_maps_to_frame_center(tmp_path):
    path = tmp_path / "quat.csv"
    path.write_text("frame,qw,qx,qy,qz\n0,1,0,0,0\n")
    for convention in ("y-up", "z-up"):
        trace = parse_trace(str(path), convention=convention)
        assert trace.samples[0].theta_deg == pytest.approx(180.0)
        assert trace.samples[0].phi_deg == pytest.approx(90.0)


def test_quaternion_yaw_turns_left(tmp_path):
    """+90 degrees about the up axis moves the gaze to theta = 90."""
    half = math.sqrt(0.5)
    path = tmp_path / "quat.csv"
    path.write_text(f"frame,qw,qx,qy,qz\n0,{half},0,{half},0\n")
    trace = parse_trace(str(path), convention="y-up")
    assert trace.samples[0].theta_deg == pytest.approx(90.0, abs=1e-9)
    assert trace.samples[0].phi_deg == pytest.approx(90.0, abs=1e-9)

    path.write_text(f"frame,qw,qx,qy,qz\n0,{half},0,0,{half}\n")
    trace = parse_trace(str(path), convention="z-up")
    assert trace.samples[0].theta_deg == pytest.approx(90.0, abs=1e-9)
    assert trace.samples[0].phi_deg == pytest.approx(90.0, abs=1e-9)


def test_quaternion_pitch_up(tmp_path):
    """+45 degrees about the right axis (y-up x) raises the gaze."""
    c, s = math.cos(math.radians(22.5)), math.sin(math.radians(22.5))
    path = tmp_path / "quat.csv"
    path.write_text(f"frame,qw,qx,qy,qz\n0,{c},{s},0,0\n")
    trace = parse_trace(str(path), convention="y-up")
    assert trace.samples[0].theta_deg == pytest.approx(180.0, abs=1e-9)
    assert trace.samples[0].phi_deg == pytest.approx(45.0, abs=1e-9)


def test_quaternion_rotation_has_the_cross_product_bits():
    """The rotation gives np.cross's bits (tests/reference.py) for random
    and axis-aligned unit quaternions, signed zeros included, in both
    conventions."""
    rng = np.random.default_rng(42)
    random = rng.normal(size=(2000, 4))
    random /= np.linalg.norm(random, axis=1, keepdims=True)
    half = math.sqrt(0.5)
    aligned = []
    for i in range(4):
        for j in range(4):
            for a in (1.0, -1.0, half, -half):
                for b in (0.0, -0.0, half, -half):
                    if j != i and (abs(a) == 1.0) == (b == 0.0):
                        q = [0.0, -0.0, 0.0, -0.0] if (i + j) % 2 else [-0.0, 0.0, -0.0, 0.0]
                        q[i], q[j] = a, b
                        aligned.append(q)
    q = np.concatenate([random, aligned])
    assert np.count_nonzero(np.signbit(q) & (q == 0.0)) > 100
    for convention in ("y-up", "z-up"):
        expected = quaternion_directions(*q.T, convention)
        got = session_module._quaternion_directions(*q.T, convention)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def test_quaternion_norm_validation(tmp_path):
    path = tmp_path / "quat.csv"
    path.write_text("frame,qw,qx,qy,qz\n0,1,0,0,0\n1,2,0,0,0\n")
    with pytest.raises(ValueError, match=r"quat.csv:3: non-unit quaternion .* frame 1"):
        parse_trace(str(path))
    path.write_text("frame,qw,qx,qy,qz\n0,1,0,0,0\n1,nan,0,0,0\n")
    with pytest.raises(ValueError, match=r"quat.csv:3: non-finite value"):
        parse_trace(str(path))
    path.write_text("frame,qw,qx,qy,qz\n1,1,0,0,0\n0,1,0,0,0\n1,1,0,0,0\n")
    with pytest.raises(ValueError, match=r"quat.csv:4: duplicate frame 1"):
        parse_trace(str(path))
    # a slightly off-unit quaternion is renormalized, not rejected
    path.write_text("frame,qw,qx,qy,qz\n0,1.0005,0,0,0\n")
    trace = parse_trace(str(path))
    assert trace.samples[0].phi_deg == pytest.approx(90.0)


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------


def test_segment_frames():
    assert segment_frames(500.0, 30.0) == 15
    assert segment_frames(2000.0, 30.0) == 60
    assert segment_frames(100.0, 30.0) == 3
    with pytest.raises(ValueError):
        segment_frames(250.0, 30.0)
    with pytest.raises(ValueError):
        segment_frames(10.0, 30.0)


def test_active_variant_is_a_step_function():
    """The variant follows the PoG sampled at each segment's first frame."""
    north = SphericalPoint(0.0, 10.0)
    middle = SphericalPoint(180.0, 90.0)
    south = SphericalPoint(90.0, 170.0)
    samples = [north] * 5 + [middle] * 5
    samples[2] = south  # mid-segment movement must not retrigger adaptation
    trace = points_trace(10.0, samples)
    config = base_config(segment_ms=500.0)
    for frame in range(5):
        assert active_variant(trace, config, frame) == area_under(LAYOUT, north.theta_deg, north.phi_deg) == 0
    for frame in range(5, 10):
        assert active_variant(trace, config, frame) == area_under(LAYOUT, middle.theta_deg, middle.phi_deg) == 13
    with pytest.raises(ValueError):
        active_variant(trace, config, 10)


def test_session_config_validation():
    for segment_ms in (0.0, -500.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            base_config(segment_ms=segment_ms)
    # The bank grid alone selects the method.
    with pytest.raises(TypeError):
        base_config(method="avaqm")
    assert base_config().method == "vaqm"
    assert base_config(avaqm_grid=(3, 6)).method == "avaqm"
    # The bank grid is None or a pair of positive integers.
    for grid in ((2.5, 6), (3,), (0, 5), (3, -6), (True, 6), (3, 6, 1), [3, 6], "3x6", 3):
        with pytest.raises(ValueError, match="bank grid must be a pair of positive integers"):
            base_config(avaqm_grid=grid)
    # bank_centers checks its grid by the same rule.
    for grid in ((2.5, 6), (0, 5), (3, -6), (True, 6)):
        with pytest.raises(ValueError, match="bank grid must be a pair of positive integers"):
            bank_centers(*grid)
    with pytest.raises(ValueError):
        base_config(resolution=Resolution(1920, 960))
    # The footprint is resolved, and so checked, when the config is built.
    full = {v: [(2, 3)] for v in range(LAYOUT.variant_count)}
    for footprint, message in (
        ("bogus", "unknown footprint spec 'bogus'"),
        ({v: tiles for v, tiles in full.items() if v != 7}, "no entry for variant 7"),
        ({**full, 4: [(5, 0)]}, r"footprint tile \(5,0\) outside 5x8 grid"),
        ({**full, 4: []}, "footprint for variant 4 is empty"),
    ):
        with pytest.raises(ValueError, match=message):
            base_config(hq_footprint=footprint)
    for t_q in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="t_q"):
            base_config(t_q=t_q)
    with pytest.raises(ValueError, match="normalization"):
        base_config(normalization="peak")


# ---------------------------------------------------------------------------
# session evaluation
# ---------------------------------------------------------------------------


def test_vaqm_matches_dense_reference():
    trace = synthetic_trace(duration_s=2.0, fps=10.0, speed_deg_per_s=60.0, seed=21)
    config = base_config()
    fast = evaluate_session(trace, config)
    dense = _evaluate_session_dense(trace, config)
    assert fast.q_window == pytest.approx(dense.q_window, rel=1e-5)
    assert fast.q_frame == pytest.approx(dense.q_frame, rel=1e-5, abs=1e-7)


def test_avaqm_matches_dense_reference():
    trace = synthetic_trace(duration_s=2.0, fps=10.0, speed_deg_per_s=60.0, seed=22)
    config = base_config(avaqm_grid=(3, 6))
    fast = evaluate_session(trace, config)
    dense = _evaluate_session_dense(trace, config)
    assert fast.q_frame == pytest.approx(dense.q_frame, rel=1e-5, abs=1e-7)


def test_all_tiles_high_quality_gives_unit_quality():
    all_tiles = [(r, c) for r in range(5) for c in range(8)]
    footprint = {v: all_tiles for v in range(LAYOUT.variant_count)}
    trace = synthetic_trace(duration_s=1.0, fps=10.0, seed=25)
    timeline = evaluate_session(trace, base_config(hq_footprint=footprint))
    assert timeline.q_window == pytest.approx(1.0, abs=1e-12)
    assert timeline.f_window == pytest.approx(100.0)
    assert (timeline.q_frame <= 1.0).all()
    # A viewport near (180, 90) never reaches tile columns 0 and 7, so a
    # footprint without them must pool to exactly 1 as well.
    inner = [(r, c) for r in range(5) for c in range(1, 7)]
    footprint = {v: inner for v in range(LAYOUT.variant_count)}
    # Ten frames spiralling out to 8.1 degrees from (180, 90).
    spiral = [SphericalPoint(180.0 + 0.9 * k * math.cos(k), 90.0 + 0.9 * k * math.sin(k)) for k in range(10)]
    trace = points_trace(10.0, spiral)
    timeline = evaluate_session(trace, base_config(hq_footprint=footprint))
    assert timeline.q_frame.tolist() == [1.0] * 10


def test_footprint_table_is_built_once_per_config(monkeypatch):
    """A config resolves its footprint into one read-only float table when
    it is built, the HQ flags of each variant and then their complements;
    stage 2 and the error study only read it."""
    calls = []
    table = session_module._hq_table

    def counted(layout, hq_footprint):
        calls.append(hq_footprint)
        return table(layout, hq_footprint)

    monkeypatch.setattr(session_module, "_hq_table", counted)
    config = base_config(hq_footprint="area-only")
    assert len(calls) == 1
    flags = config._flags
    assert flags.dtype == np.float64 and flags.shape == (40, 52)
    assert not flags.flags.writeable
    hq = table(LAYOUT, "area-only").reshape(26, 40).T
    assert np.array_equal(flags[:, :26], hq) and np.array_equal(flags[:, 26:], ~hq)
    trace = synthetic_trace(duration_s=1.0, fps=10.0, seed=30)
    geometry = session_geometries([trace], config)[0]
    for _ in range(3):
        pool_session(trace, config, geometry)
    assert len(calls) == 1
    # One table for each config the study builds (the vaqm side and each
    # bank grid), none for each trace it pools.
    approximation_error_study([trace, trace], config, [(3, 6), (5, 10)])
    assert len(calls) == 4


def test_one_geometry_serves_every_segment_length():
    """Stage 2 on a shared stage-1 geometry gives the same bits as a fresh evaluation."""
    trace = synthetic_trace(duration_s=4.0, fps=30.0, speed_deg_per_s=60.0, seed=23)
    for config in (base_config(), base_config(avaqm_grid=(5, 10))):
        geometry = session_geometries([trace], config)[0]
        for segment_ms, footprint, normalization in (
            (100.0, "area-only", "mask-area"),
            (500.0, "area+neighbors", "analytic"),
            (2000.0, "area+neighbors", "mask-area"),
        ):
            variant = replace(
                config, segment_ms=segment_ms, hq_footprint=footprint, normalization=normalization
            )
            assert same_series(pool_session(trace, variant, geometry), evaluate_session(trace, variant))


def test_avaqm_geometry_is_one_row_per_bank_center():
    trace = synthetic_trace(duration_s=2.0, fps=10.0, speed_deg_per_s=60.0, seed=24)
    geometry = session_geometries([trace], base_config(avaqm_grid=(5, 10)))[0]
    centers = bank_centers(5, 10)
    assert geometry.tile_sums.shape == (50, LAYOUT.grid.rows * LAYOUT.grid.cols)
    assert geometry.mask_rows.tolist() == [nearest_center_index(centers, p) for p in trace.samples]


def test_snapping_to_no_centers_is_rejected():
    with pytest.raises(ValueError, match="no centers to snap to"):
        nearest_center_index((), SphericalPoint(10.0, 20.0))


def test_session_geometries_form_the_bank_vectors_once(monkeypatch):
    """Traces that share a bank snap to its center vectors as the build
    formed them: directions are formed once for the bank and once per
    trace, for its moved PoGs."""
    traces = [synthetic_trace(duration_s=1.0, fps=10.0, seed=seed) for seed in (51, 52, 53)]
    to_cartesian = session_module.spherical_to_cartesian_arrays
    sizes = []

    def counted(theta_deg, phi_deg):
        sizes.append(np.size(theta_deg))
        return to_cartesian(theta_deg, phi_deg)

    monkeypatch.setattr(session_module, "spherical_to_cartesian_arrays", counted)
    geometries = session_geometries(traces, base_config(avaqm_grid=(3, 6)))
    moved = [1 + np.count_nonzero((np.diff(t.theta_deg) != 0.0) | (np.diff(t.phi_deg) != 0.0)) for t in traces]
    assert sizes == [18] + moved
    monkeypatch.undo()
    centers = bank_centers(3, 6)
    for trace, geometry in zip(traces, geometries):
        assert geometry.mask_rows.tolist() == [nearest_center_index(centers, p) for p in trace.samples]


def dwell_trace():
    """A 6 s walk at 10 fps that dwells on about half its frames, with a
    repeat at frame 1, a move in phi alone, a dwell on a bank tie point
    and a dwell at a pole; and the indices of its moved frames."""
    walk = synthetic_trace(duration_s=6.0, fps=10.0, speed_deg_per_s=60.0, dwell_probability=0.5, seed=31)
    theta, phi = walk.theta_deg.tolist(), walk.phi_deg.tolist()
    theta[1], phi[1] = theta[0], phi[0]
    theta[2:5], phi[2:5] = [theta[0]] * 3, [phi[0] + 5.0] * 3
    theta[5:8], phi[5:8] = [0.0] * 3, [90.0] * 3
    theta[8:11], phi[8:11] = [40.0] * 3, [0.0] * 3
    trace = SessionTrace(10.0, theta, phi)
    pogs = list(zip(trace.theta_deg.tolist(), trace.phi_deg.tolist()))
    moved = [0] + [i for i in range(1, len(pogs)) if pogs[i] != pogs[i - 1]]
    assert 1 not in moved and 2 in moved and {3, 9, 10}.isdisjoint(moved) and len(moved) < 0.75 * len(pogs)
    return trace, moved


def test_bank_geometry_snaps_each_dwell_once(monkeypatch):
    """A PoG equal to the frame before's reuses its center: only moved
    frames are snapped, and the rows equal snapping every frame."""
    trace, moved = dwell_trace()
    config = base_config(avaqm_grid=(3, 6))
    snap = session_module._snapped_centers
    snapped = []

    def counted(centers, tables, theta_deg, phi_deg):
        snapped.append(theta_deg.size)
        return snap(centers, tables, theta_deg, phi_deg)

    monkeypatch.setattr(session_module, "_snapped_centers", counted)
    (geometry,) = session_geometries([trace], config)
    assert snapped == [len(moved)]
    every = nearest_centers(center_vectors(bank_centers(3, 6)), trace.theta_deg, trace.phi_deg)
    assert geometry.mask_rows.dtype == every.dtype
    assert geometry.mask_rows.tolist() == every.tolist()


def test_vaqm_geometry_projects_each_dwell_once(monkeypatch):
    """vaqm projects only the moved PoGs and keeps one tile-sum row for
    each, with the bits of projecting every frame; q keeps the bits of
    pooling a geometry with one row per frame."""
    trace, moved = dwell_trace()
    config = base_config()
    project = session_module._project_spans
    calls = []

    def counted(gaze, res):
        calls.append(SphericalPoint(gaze.theta_deg, gaze.phi_deg))
        return project(gaze, res)

    monkeypatch.setattr(session_module, "_project_spans", counted)
    (geometry,) = session_geometries([trace], config)
    assert calls == [trace.samples[i] for i in moved]
    assert geometry.tile_sums.shape == (len(moved), LAYOUT.grid.rows * LAYOUT.grid.cols)
    monkeypatch.undo()
    every = session_module._tile_sums_at(trace.theta_deg, trace.phi_deg, config)
    assert geometry.tile_sums[geometry.mask_rows].tobytes() == every.tobytes()
    per_frame = session_module.SessionGeometry(geometry.key, every, np.arange(trace.n_frames))
    q = pool_session(trace, config, per_frame).q_frame
    assert evaluate_session(trace, config).q_frame.tobytes() == q.tobytes()


@pytest.mark.parametrize("grid", [None, (3, 6), (10, 20)])
@pytest.mark.parametrize("footprint", ["area+neighbors", "area-only"])
def test_a_clip_scores_its_frames_like_the_whole_trace(grid, footprint):
    """A frame's q depends only on its mask and variant: the first 40
    frames of each of 20 60-frame walks, scored alone, keep the bits they
    have in the whole walk, though the clip's vaqm geometry has fewer
    rows and a 3x6 bank has only 18."""
    config = base_config(hq_footprint=footprint, avaqm_grid=grid)
    walks = [synthetic_trace(duration_s=2.0, fps=30.0, seed=seed) for seed in range(20)]
    clips = [SessionTrace(30.0, walk.theta_deg[:40], walk.phi_deg[:40]) for walk in walks]
    for walk, clip in zip(walks, clips):
        whole = evaluate_session(walk, config).q_frame
        assert evaluate_session(clip, config).q_frame.tobytes() == whole[:40].tobytes()


@pytest.mark.parametrize("res", [RES, Resolution(3840, 1920)])
def test_tile_sum_rows_keep_their_bits_in_any_trace(res):
    """Each PoG's tile-sum row keeps the bits a one-PoG call gives it when
    the PoGs are shuffled or cut to a part: the one set-up pass over a
    trace gives each PoG its own values.  The PoGs are a walk plus the
    poles, the seam, the equator, the v/2 and corner-radius colatitudes
    where a pole meets the viewport or its cap."""
    config = base_config(resolution=res, layout=variant_layout_26(res))
    walk = synthetic_trace(duration_s=2.0, fps=30.0, speed_deg_per_s=120.0, seed=41)
    probes = [(0.0, 0.0), (77.0, 180.0), (0.0, 90.0), (359.99, 60.0), (180.0, 42.5), (10.0, 137.5), (200.0, 56.42)]
    theta = np.concatenate((walk.theta_deg, [t for t, _ in probes]))
    phi = np.concatenate((walk.phi_deg, [p for _, p in probes]))
    tile_sums = session_module._tile_sums_at
    alone = np.concatenate([tile_sums(theta[i : i + 1], phi[i : i + 1], config) for i in range(theta.size)])
    order = np.random.default_rng(42).permutation(theta.size)
    assert tile_sums(theta[order], phi[order], config).tobytes() == alone[order].tobytes()
    for start, stop in ((0, 7), (5, 40), (theta.size - 7, theta.size)):
        assert tile_sums(theta[start:stop], phi[start:stop], config).tobytes() == alone[start:stop].tobytes()


BANK_CASES = [
    (fov, res, grid, grid[0])
    for fov in ((100.0, 85.0), (90.0, 90.0), (120.0, 90.0))
    for res in ((960, 480), (3840, 1920))
    for grid in ((3, 6), (5, 10), (10, 20))
] + [
    # 13 columns do not divide 960: every center is projected.
    ((100.0, 85.0), (960, 480), (7, 13), 7 * 13),
    # No row's column window holds an end on a row center.
    ((100.0, 85.0), (360, 180), (20, 40), 20),
    # Every row has column ends on row centers.
    ((90.0, 90.0), (360, 180), (20, 40), 20 * 40),
]


@pytest.mark.parametrize("fov, res, grid, projections", BANK_CASES)
def test_bank_tile_sums_equal_center_by_center_builds(monkeypatch, fov, res, grid, projections):
    """A bank row is projected once and rolled to its other centers, with
    the bits of projecting every center, unless its first center had a
    column end taken again or the column count does not divide n_h; then
    it is projected center by center."""
    res = Resolution(*res)
    config = base_config(
        fov=FieldOfView(*fov), resolution=res, layout=variant_layout_26(res), avaqm_grid=grid
    )
    centers = bank_centers(*grid)
    theta = np.array([c.theta_deg for c in centers])
    phi = np.array([c.phi_deg for c in centers])
    expected = session_module._tile_sums_at(theta, phi, config)
    project = session_module._project_spans
    rows, cols = grid
    projected = []
    for first, gaze in zip(range(0, len(centers), cols), _gazes(theta[::cols], phi[::cols], config.fov, res)):
        row = centers[first : first + cols]
        projected += row if project(gaze, res)[2].size or res.n_h % cols else row[:1]
    calls = []

    def counted(gaze, res):
        calls.append(SphericalPoint(gaze.theta_deg, gaze.phi_deg))
        return project(gaze, res)

    monkeypatch.setattr(session_module, "_project_spans", counted)
    bank, sums = session_module._bank_tile_sums(config)
    assert bank.tobytes() == center_vectors(centers).tobytes()
    assert sums.tobytes() == expected.tobytes()
    assert calls == projected
    assert len(calls) == projections


def tie_pogs(rows, cols):
    """PoGs equidistant from two or more bank centers: both poles, the
    theta = 0 seam at each center row, and the points halfway between
    adjacent centers along a row, along a column and diagonally."""
    pogs = [SphericalPoint(t, p) for t, p in ((0.0, 0.0), (77.0, 0.0), (0.0, 180.0), (300.0, 180.0))]
    for i in range(rows):
        phi = (i + 0.5) * 180.0 / rows
        pogs.append(SphericalPoint(0.0, phi))
        for j in range(cols):
            theta = (j + 0.5) * 360.0 / cols
            pogs.append(SphericalPoint(theta + 180.0 / cols, phi))
            if i + 1 < rows:
                pogs.append(SphericalPoint(theta, phi + 90.0 / rows))
                pogs.append(SphericalPoint(theta + 180.0 / cols, phi + 90.0 / rows))
    return pogs


def test_nearest_center_rule_is_shared_on_ties():
    """avaqm frames and nearest_center_index snap tied PoGs the same way,
    to the lowest tied center."""
    for rows, cols in ((3, 6), (5, 10), (10, 20)):
        pogs = tie_pogs(rows, cols)
        trace = points_trace(10.0, pogs)
        geometry = session_geometries([trace], base_config(avaqm_grid=(rows, cols)))[0]
        centers = bank_centers(rows, cols)
        assert geometry.mask_rows.tolist() == [nearest_center_index(centers, p) for p in trace.samples]
        for pog, row in zip(trace.samples, geometry.mask_rows):
            distances = np.array([angular_distance_deg(pog, c) for c in centers])
            assert row == np.flatnonzero(distances <= distances.min() + 1e-9)[0]
    centers = bank_centers(3, 6)
    assert nearest_center_index(centers, SphericalPoint(0.0, 0.0)) == 0
    assert nearest_center_index(centers, SphericalPoint(0.0, 180.0)) == 12
    assert nearest_center_index(centers, SphericalPoint(0.0, 90.0)) == 6


def test_large_bank_snaps_in_blocks_like_one_pog_at_a_time():
    """A block holds NEAREST_CENTER_DOTS / centers PoGs, 10 for a 100x200
    bank; every PoG of a sample, poles and ties among them, snaps, by the
    dense rule in blocks and by the two steps, to the center the dense
    reference gives it alone."""
    centers = center_vectors(bank_centers(100, 200))
    rng = np.random.default_rng(32)
    ties = tie_pogs(100, 200)
    pogs = ties[:4] + ties[4::997] + list(map(SphericalPoint, rng.uniform(0.0, 360.0, 40), rng.uniform(0.0, 180.0, 40)))
    assert session_module.NEAREST_CENTER_DOTS // len(centers) == 10 < len(pogs)
    theta, phi = (np.array([getattr(p, name) for p in pogs]) for name in ("theta_deg", "phi_deg"))
    alone = [int(nearest_centers(centers, theta[i : i + 1], phi[i : i + 1])[0]) for i in range(len(pogs))]
    directions = np.stack(spherical_to_cartesian_arrays(theta, phi), axis=1)
    assert session_module._nearest_centers(centers, directions).tolist() == alone
    tables = session_module._snap_tables((100, 200))
    assert session_module._snapped_centers(centers, tables, theta, phi).tolist() == alone


def _grid_angle(draw, count, span):
    """An angle in [0, span] for a grid of count cells: a cell edge, a
    center, either end of the range or any value, moved by one of -1e-13,
    0 and 1e-13."""
    cell = span / count
    kind = draw(st.sampled_from(("edge", "center", "end", "any")))
    if kind == "edge":
        angle = draw(st.integers(0, count)) * cell
    elif kind == "center":
        angle = (draw(st.integers(0, count - 1)) + 0.5) * cell
    elif kind == "end":
        angle = draw(st.sampled_from((0.0, math.nextafter(span, 0.0), span)))
    else:
        angle = draw(st.floats(0.0, span))
    return angle + draw(st.sampled_from((-1e-13, 0.0, 1e-13)))


@st.composite
def bank_and_pogs(draw):
    """A bank grid of 1-50 rows and 1-100 columns and up to 40 PoGs on
    its poles, cell edges, centers, the points halfway between centers
    (a center's angle with a cell edge's), the seam and anywhere."""
    rows, cols = draw(st.integers(1, 50)), draw(st.integers(1, 100))
    pogs = [(_grid_angle(draw, cols, 360.0), _grid_angle(draw, rows, 180.0)) for _ in range(draw(st.integers(1, 40)))]
    return rows, cols, pogs


@given(case=bank_and_pogs())
@example(case=(1, 1, [(0.0, 0.0), (180.0, 90.0), (0.0, 180.0)]))
@example(case=(3, 6, [(0.0, 0.0), (60.0, 30.0), (30.0, 60.0 + 1e-13), (math.nextafter(360.0, 0.0), 90.0)]))
@example(case=(10, 20, [(9.0, 9.0), (18.0, 9.0 - 1e-13), (9.0, 18.0 + 1e-13), (0.0, 180.0), (27.0, 171.0)]))
@example(case=(4, 1, [(0.0, 30.0), (90.0, 100.0), (270.0, 160.0), (350.0, 45.0), (10.0, 135.0), (180.0, 22.5)]))
@example(case=(1, 5, [(0.0, 0.0), (36.0, 90.0), (72.0 + 1e-13, 10.0), (300.0, 179.0), (math.nextafter(360.0, 0.0), 90.0)]))
@example(case=(2, 2, [(0.0, 45.0), (90.0, 90.0), (180.0, 135.0), (270.0, 90.0 - 1e-13), (45.0, 10.0), (135.0, 170.0)]))
def test_two_step_snap_gives_the_dense_reference_index(case):
    """The column certificate and the dense rule for the rest give every
    PoG the index of the dense reference, ties, poles and one-column and
    one-row banks included.  With one column sin(phi) cos(theta -
    theta_j) may be negative, so psi leaves [0, 180]."""
    rows, cols, pogs = case
    trace = SessionTrace(10.0, [t for t, _ in pogs], [p for _, p in pogs])
    centers = center_vectors(bank_centers(rows, cols))
    tables = session_module._snap_tables((rows, cols))
    snapped = session_module._snapped_centers(centers, tables, trace.theta_deg, trace.phi_deg)
    assert snapped.tolist() == nearest_centers(centers, trace.theta_deg, trace.phi_deg).tolist()


def test_certificate_decides_most_moved_pogs_and_no_tie(monkeypatch):
    """On a 10x20 bank the certificate decides all but at most 1% of the
    moved PoGs of a head walk; every PoG on a pole or equidistant from two
    centers, and every PoG of a one-column bank, is left to the dense
    rule."""
    walk = synthetic_trace(duration_s=20.0, fps=30.0, seed=41)
    ties = points_trace(10.0, tie_pogs(10, 20))
    moved = [1 + np.count_nonzero((np.diff(t.theta_deg) != 0.0) | (np.diff(t.phi_deg) != 0.0)) for t in (walk, ties)]
    assert np.count_nonzero(ties.phi_deg % 180.0 == 0.0) == 4
    dense = session_module._nearest_centers
    sent = []

    def counted(centers_xyz, directions):
        sent.append(len(directions))
        return dense(centers_xyz, directions)

    monkeypatch.setattr(session_module, "_nearest_centers", counted)
    session_geometries([walk, ties], base_config(avaqm_grid=(10, 20)))
    assert sent[0] <= moved[0] / 100
    assert sent[1] == moved[1] == len(ties.samples)
    session_geometries([walk], base_config(avaqm_grid=(4, 1)))
    assert sent[2] == moved[0]


def test_variant_schedule_follows_segment_starts():
    """The per-frame schedule is active_variant at every frame, and the
    array lookup gives the area of the scalar pixel and tile rules."""
    trace = synthetic_trace(duration_s=4.0, fps=30.0, speed_deg_per_s=120.0, seed=29)
    # 700 ms (21 frames) leaves a short last segment.
    for segment_ms in (100.0, 500.0, 700.0, 4000.0):
        config = base_config(segment_ms=segment_ms)
        variants = _variant_per_frame(trace, config)
        assert variants.tolist() == [active_variant(trace, config, i) for i in range(trace.n_frames)]
    rng = np.random.default_rng(30)
    theta = np.concatenate([rng.uniform(0.0, 360.0, 500), [0.0, 359.9999999, 45.0, 180.0]])
    phi = np.concatenate([rng.uniform(0.0, 180.0, 500), [0.0, 180.0, 36.0, 144.0]])
    # Pixel and tile edges: every tile boundary of the 960x480 5x8 grid.
    theta = np.concatenate([theta, np.arange(0.0, 360.0, 45.0), np.full(6, 90.0)])
    phi = np.concatenate([phi, np.full(8, 90.0), np.arange(0.0, 181.0, 36.0)])
    for res in (RES, Resolution(100, 50)):
        layout = variant_layout_26(res)
        expected = [area_under(layout, t, p) for t, p in zip(theta.tolist(), phi.tolist())]
        assert layout._areas_at(theta, phi).tolist() == expected


def test_pool_session_rejects_foreign_geometry():
    trace = synthetic_trace(duration_s=1.0, fps=10.0, seed=28)
    geometry = session_geometries([trace], base_config())[0]
    for config in (
        base_config(fov=FieldOfView(90.0, 90.0)),
        base_config(avaqm_grid=(3, 6)),
    ):
        with pytest.raises(ValueError, match="another trace or configuration"):
            pool_session(trace, config, geometry)
    shorter = synthetic_trace(duration_s=0.5, fps=10.0, seed=28)
    with pytest.raises(ValueError, match="another trace or configuration"):
        pool_session(shorter, base_config(), geometry)


def test_tile_weight_sums_match_row_by_row_loop():
    """All tile rows in one pass give the same bits as one pass per tile row."""
    grid = LAYOUT.grid
    prefix = np.concatenate(([0.0], np.cumsum(np.sin(np.deg2rad(row_centers_deg(RES))))))
    edges = grid.row_edges()
    theta, phi = np.array([180.0, 320.0, 10.0]), np.array([30.0, 110.0, 179.0])
    for gaze in _gazes(theta, phi, FOV, RES):
        start, rows, _ = _project_spans(gaze, RES)
        top, bot = full_width_spans(start, rows, RES)
        expected = np.empty((grid.rows, grid.cols))
        for r in range(grid.rows):
            lo = np.maximum(top, edges[r])
            hi = np.minimum(bot, edges[r + 1] - 1)
            contribution = np.where(hi >= lo, prefix[hi + 1] - prefix[lo], 0.0)
            expected[r] = np.add.reduceat(contribution, grid.col_edges()[:-1])
        sums = np.zeros((grid.rows, grid.cols))
        _tile_weight_sums(start, rows, grid, sums)
        assert np.array_equal(sums, expected)


def test_quality_bounds_and_timeline_length():
    trace = synthetic_trace(duration_s=3.0, fps=10.0, seed=26)
    timeline = evaluate_session(trace, base_config())
    assert timeline.q_frame.shape == timeline.mask_area.shape == (30,)
    assert ((0.0 <= timeline.q_frame) & (timeline.q_frame <= 1.0 + 1e-12)).all()


# ---------------------------------------------------------------------------
# approximation error study
# ---------------------------------------------------------------------------


def test_error_is_zero_when_trace_sits_on_bank_centers():
    samples = bank_centers(3, 6)
    trace = points_trace(2.0, samples)  # one frame per 500 ms segment
    config = base_config()
    reports = approximation_error_study([trace], config, [(3, 6)])
    assert reports[0].mean_relative_error == 0.0
    assert reports[0].excluded_frames == 0


def test_error_decreases_with_finer_grids():
    traces = [
        synthetic_trace(duration_s=3.0, fps=30.0, speed_deg_per_s=45.0, seed=s) for s in (1, 2)
    ]
    reports = approximation_error_study(traces, base_config(), [(3, 6), (10, 20)])
    assert reports[0].grid_rows == 3 and reports[1].grid_rows == 10
    assert reports[1].mean_relative_error < reports[0].mean_relative_error
    for report in reports:
        assert report.per_frame_errors.size + report.excluded_frames == 180


def test_error_study_reuses_exact_geometries():
    traces = [synthetic_trace(duration_s=2.0, fps=30.0, seed=s) for s in (3, 4)]
    config = base_config()
    geometries = session_geometries(traces, config)
    fresh = approximation_error_study(traces, config, [(3, 6), (5, 10)])
    reused = approximation_error_study(traces, config, [(3, 6), (5, 10)], geometries)
    for a, b in zip(fresh, reused):
        assert np.array_equal(a.per_frame_errors, b.per_frame_errors)
        assert a.excluded_frames == b.excluded_frames
    avaqm = session_geometries(traces[:1], base_config(avaqm_grid=(3, 6)))[0]
    with pytest.raises(ValueError, match="another trace or configuration"):
        approximation_error_study(traces[:1], config, [(3, 6)], [avaqm])


def test_error_study_requires_traces():
    with pytest.raises(ValueError):
        approximation_error_study([], base_config(), [(3, 6)])


# ---------------------------------------------------------------------------
# manifests and reports
# ---------------------------------------------------------------------------


def test_load_batch_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    entries = [
        {"trace": "a.csv", "content": "roller"},
        {"synthetic": {"seed": 1, "duration_s": 2.0}, "content": "walk"},
        {"trace": "b.csv", "segment_ms": 500},
        {"trace": "c.csv", "segment_ms": [500, 2000.5]},
        {"synthetic": {"seed": 10**400}},
    ]
    path.write_text(json.dumps(entries))
    assert load_batch_manifest(str(path)) == entries

    path.write_text(json.dumps({"sessions": entries}))
    with pytest.raises(ValueError, match="non-empty JSON list"):
        load_batch_manifest(str(path))

    path.write_text("{not json")
    with pytest.raises(ValueError) as info:
        load_batch_manifest(str(path))
    assert str(info.value).startswith(f"{path}: Expecting property name")

    path.write_text(json.dumps([]))
    with pytest.raises(ValueError, match="non-empty JSON list"):
        load_batch_manifest(str(path))

    path.write_text(json.dumps([{"content": "nameless"}]))
    with pytest.raises(ValueError, match="entry 0"):
        load_batch_manifest(str(path))

    for entry, problem in (
        ({"trace": "a.csv", "label": "x"}, "unknown key 'label'"),
        ({"synthetic": {"seed": 1, "speeed": 45.0}}, "unknown key 'speeed'"),
        ({"synthetic": {"seed": 1, "start": [0, 90]}}, "unknown key 'start'"),
        ({"synthetic": {"seed": 1.5}}, "'seed' must be an integer"),
        ({"synthetic": {"duration_s": "2"}}, "'duration_s' must be a number"),
        ({"synthetic": [1, 2]}, "'synthetic' must be an object"),
        # Past the float range, as for segment_ms; a seed may be any integer.
        ({"synthetic": {"seed": 1, "fps": 10**400}}, "synthetic 'fps' must be finite"),
        ({"synthetic": {"seed": 1, "speed_deg_per_s": -math.inf}}, "synthetic 'speed_deg_per_s' must be finite"),
        ({"trace": "a.csv", "synthetic": {"seed": 1}}, "exactly one of"),
        ({"trace": 3}, "'trace' must be a file path"),
        ({"trace": "a.csv", "segment_ms": "500"}, "'segment_ms' must be"),
        ({"trace": "a.csv", "segment_ms": []}, "'segment_ms' must be"),
        ({"trace": "a.csv", "segment_ms": None}, "'segment_ms' must be a number"),
        ({"trace": "a.csv", "segment_ms": True}, "'segment_ms' must be a number"),
        # json.load reads NaN and Infinity; an integer may overflow a float.
        ({"trace": "a.csv", "segment_ms": 0}, "'segment_ms' must be positive and finite, got 0"),
        ({"trace": "a.csv", "segment_ms": -500.0}, "'segment_ms' must be positive and finite"),
        ({"trace": "a.csv", "segment_ms": math.nan}, "'segment_ms' must be positive and finite, got nan"),
        ({"trace": "a.csv", "segment_ms": [500, math.inf]}, "'segment_ms' must be positive and finite"),
        ({"trace": "a.csv", "segment_ms": 10**400}, "'segment_ms' must be positive and finite"),
        ({"trace": "a.csv", "content": ["x"]}, "'content' must be a string"),
        ({"trace": "a.csv", "content": 7}, "'content' must be a string"),
        ({"trace": "a.csv", "content": "a\rb"}, "'content' must be a string"),
    ):
        path.write_text(json.dumps([{"trace": "ok.csv"}, entry]))
        with pytest.raises(ValueError) as info:
            load_batch_manifest(str(path))
        message = str(info.value)
        assert message.startswith(f"{path}: entry 1: ") and problem in message


def test_session_report_contents():
    trace = synthetic_trace(duration_s=1.0, fps=10.0, seed=27)
    config = base_config(avaqm_grid=(3, 6))
    timeline = evaluate_session(trace, config)
    report = session_report(timeline, config, trace, frame_csv="frames.csv")
    assert report["q_window"] == timeline.q_window
    assert report["f_window"] == timeline.f_window
    assert report["n_frames"] == 10
    assert report["fps"] == 10.0
    assert report["segment_ms"] == 500.0
    assert report["method"] == "avaqm"
    assert report["avaqm_grid"] == [3, 6]
    assert report["frame_series"] == "frames.csv"
    assert report["hq_footprint"] == "area+neighbors"
    json.dumps(report)
    # vaqm uses no bank, and its report has no grid.
    config = base_config()
    report = session_report(evaluate_session(trace, config), config, trace)
    assert report["method"] == "vaqm" and "avaqm_grid" not in report
