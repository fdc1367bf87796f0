"""End-to-end tests of the vq360 command line."""

import ast
import csv
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import vq360.cli
import vq360.session
from vq360.cli import main
from vq360.geometry import FieldOfView, Resolution
from vq360.grade import variant_layout_26
from vq360.session import SessionConfig, approximation_error_study, evaluate_session, synthetic_trace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_npz(path):
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def test_mask_command_writes_outputs(tmp_path, capsys):
    pgm = tmp_path / "mask.pgm"
    npz = tmp_path / "mask.npz"
    code, out, _ = run(
        capsys,
        "mask", "--pog", "320,110", "--resolution", "960x480",
        "--out", str(pgm), "--npz", str(npz),
    )
    assert code == 0
    assert "equivalent pixels" in out
    assert pgm.read_bytes().startswith(b"P5\n960 480\n255\n")
    mask = read_npz(npz)
    assert mask["pog"].tolist() == [320.0, 110.0]
    support = mask["weights"] > 0.0
    assert support[:, 0].any() and support[:, -1].any()


def test_mask_central_pog_is_symmetric(tmp_path, capsys):
    npz = tmp_path / "center.npz"
    code, _, _ = run(
        capsys,
        "mask", "--pog", "180,90", "--resolution", "960x480",
        "--out", str(tmp_path / "center.pgm"), "--npz", str(npz),
    )
    assert code == 0
    support = read_npz(npz)["weights"] > 0.0
    assert np.array_equal(support, support[:, ::-1])
    assert np.array_equal(support, support[::-1, :])


def test_mask_exact_close_to_default(tmp_path, capsys):
    args = ["--pog", "250,70", "--resolution", "960x480"]
    code, _, _ = run(
        capsys,
        "mask", *args, "--out", str(tmp_path / "fast.pgm"), "--npz", str(tmp_path / "fast.npz"),
    )
    assert code == 0
    code, _, _ = run(
        capsys,
        "mask", *args, "--exact",
        "--out", str(tmp_path / "exact.pgm"), "--npz", str(tmp_path / "exact.npz"),
    )
    assert code == 0
    fast = read_npz(tmp_path / "fast.npz")["weights"] > 0.0
    exact = read_npz(tmp_path / "exact.npz")["weights"] > 0.0
    assert np.count_nonzero(fast & exact) / np.count_nonzero(fast | exact) >= 0.995


def test_synth_trace_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code, out, _ = run(
            capsys,
            "synth-trace", "--seed", "11", "--duration-s", "2", "--out", str(path),
        )
        assert code == 0
        assert "60 frames" in out
    assert first.read_bytes() == second.read_bytes()


def test_evaluate_writes_report(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    run(capsys, "synth-trace", "--seed", "7", "--duration-s", "2", "--out", str(trace))
    prefix = str(tmp_path / "run")
    code, out, _ = run(
        capsys,
        "evaluate", "--trace", str(trace), "--resolution", "960x480",
        "--segment-ms", "500", "--out-prefix", prefix,
    )
    assert code == 0
    assert "q_window" in out
    frames = (tmp_path / "run_frames.csv").read_text().strip().split("\n")
    assert frames[0] == "frame,q_frame"
    assert len(frames) == 61
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert 0.0 <= summary["q_window"] <= 1.0
    assert summary["method"] == "vaqm"
    assert summary["n_frames"] == 60
    assert summary["frame_series"] == "run_frames.csv"


def test_evaluate_avaqm_writes_report(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    run(capsys, "synth-trace", "--seed", "8", "--duration-s", "1", "--out", str(trace))
    argv = [
        "evaluate", "--trace", str(trace), "--resolution", "960x480",
        "--segment-ms", "500", "--method", "avaqm", "--grid", "3x6",
        "--out-prefix", str(tmp_path / "one"),
    ]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    argv[-1] = str(tmp_path / "two")
    code, _, _ = run(capsys, *argv)
    assert code == 0
    one = json.loads((tmp_path / "one_summary.json").read_text())
    two = json.loads((tmp_path / "two_summary.json").read_text())
    assert one["q_window"] == two["q_window"]
    assert one["avaqm_grid"] == [3, 6]
    assert one["n_frames"] == 30


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_outputs_get_a_new_file_mode_under_the_umask(tmp_path, capsys, umask):
    """Every file the commands write gets the mode open(path, "w") gives
    a new file, 0o666 less the umask, and no temporary file is left."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"content": "walk", "synthetic": {"seed": 1, "duration_s": 1.0}}]))
    trace = tmp_path / "trace.csv"
    old = os.umask(umask)
    try:
        for argv in (
            ["synth-trace", "--seed", "7", "--duration-s", "1", "--out", str(trace)],
            ["evaluate", "--trace", str(trace), "--resolution", "960x480", "--out-prefix", str(tmp_path / "run")],
            ["study", "--manifest", str(manifest), "--resolution", "960x480", "--segments", "500",
             "--grids", "3x6", "--out", str(tmp_path / "study")],
            ["mask", "--pog", "320,110", "--resolution", "960x480",
             "--out", str(tmp_path / "mask.pgm"), "--npz", str(tmp_path / "mask.npz")],
        ):
            assert run(capsys, *argv)[0] == 0
    finally:
        os.umask(old)
    written = {path.relative_to(tmp_path).as_posix(): path for path in tmp_path.rglob("*") if path.is_file()}
    assert sorted(written) == [
        "manifest.json", "mask.npz", "mask.pgm", "run_frames.csv", "run_summary.json",
        "study/error_table.csv", "study/segment_table.csv", "trace.csv",
    ]
    del written["manifest.json"]
    assert {name: oct(path.stat().st_mode & 0o777) for name, path in written.items()} == {
        name: oct(0o666 & ~umask) for name in written
    }


def test_study_tables_and_determinism(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"content": "walk", "synthetic": {"seed": 1, "duration_s": 2.0, "speed_deg_per_s": 45.0}},
        {"content": "walk", "synthetic": {"seed": 2, "duration_s": 2.0, "speed_deg_per_s": 45.0}},
        {"content": "gaze", "synthetic": {"seed": 3, "duration_s": 2.0, "speed_deg_per_s": 15.0},
         "segment_ms": 1000},
    ]))
    argv = [
        "study", "--manifest", str(manifest), "--resolution", "960x480",
        "--segments", "500,2000", "--grids", "3x6,5x10", "--out",
    ]
    code, out, _ = run(capsys, *argv, str(tmp_path / "out1"))
    assert code == 0 and "segment_table.csv" in out
    segment_lines = (tmp_path / "out1" / "segment_table.csv").read_text().strip().split("\n")
    assert segment_lines[0] == "content,segment_ms,n_sessions,q_window_mean,f_window_mean"
    # walk x {500, 2000} plus gaze x {1000}
    assert len(segment_lines) == 4
    walk_rows = [line for line in segment_lines[1:] if line.startswith("walk,")]
    assert all(line.split(",")[2] == "2" for line in walk_rows)
    error_lines = (tmp_path / "out1" / "error_table.csv").read_text().strip().split("\n")
    assert error_lines[0] == "grid_rows,grid_cols,mean_relative_error_percent,excluded_frames"
    assert [line.split(",")[:2] for line in error_lines[1:]] == [["3", "6"], ["5", "10"]]

    code, _, _ = run(capsys, *argv, str(tmp_path / "out2"))
    assert code == 0
    for name in ("segment_table.csv", "error_table.csv"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


def test_study_quotes_labels_that_need_it(tmp_path, capsys):
    """Labels holding a comma, a quote or a line feed round-trip through
    segment_table.csv as one field each; plain labels stay unquoted."""
    labels = ["gaze,a", 'say "hi"', "line\nbreak", "plain"]
    recipe = {"seed": 1, "duration_s": 1.0}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"content": label, "synthetic": recipe} for label in labels]))
    code, _, _ = run(
        capsys,
        "study", "--manifest", str(manifest), "--resolution", "960x480",
        "--segments", "500", "--grids", "", "--out", str(tmp_path / "out"),
    )
    assert code == 0
    text = (tmp_path / "out" / "segment_table.csv").read_text()
    with open(tmp_path / "out" / "segment_table.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [row[0] for row in rows[1:]] == sorted(labels)
    assert all(len(row) == 5 for row in rows)
    plain = next(row for row in rows if row[0] == "plain")
    assert "\nplain," + ",".join(plain[1:]) + "\n" in text


def moved_frames(trace):
    """Frames whose PoG differs from the frame before's, frame 0 included."""
    pogs = list(zip(trace.theta_deg.tolist(), trace.phi_deg.tolist()))
    return 1 + sum(pogs[i] != pogs[i - 1] for i in range(1, len(pogs)))


def test_study_projects_each_trace_once(tmp_path, capsys, monkeypatch):
    """Every moved trace frame and the first center of every bank row is
    projected exactly once, and each segment-table row equals
    evaluate_session on its trace."""
    recipes = [
        {"seed": 4, "duration_s": 1.0, "speed_deg_per_s": 45.0},
        {"seed": 5, "duration_s": 2.0, "speed_deg_per_s": 90.0, "dwell_probability": 0.0},
    ]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"content": "a", "synthetic": recipes[0]},
        {"content": "b", "synthetic": recipes[1], "segment_ms": [100, 1000]},
    ]))
    calls = []
    project = vq360.session._project_spans

    def counted(gaze, res):
        calls.append(gaze)
        return project(gaze, res)

    monkeypatch.setattr(vq360.session, "_project_spans", counted)
    code, _, _ = run(
        capsys,
        "study", "--manifest", str(manifest), "--resolution", "960x480",
        "--segments", "500,2000,6000", "--grids", "3x6,5x10", "--out", str(tmp_path / "out"),
    )
    assert code == 0
    # A repeated PoG is not projected again; one projection per bank row:
    # the row's other centers take its weights, rolled.
    moved = [moved_frames(synthetic_trace(**recipe, fps=30.0)) for recipe in recipes]
    assert moved[0] < 30 and moved[1] == 60
    assert len(calls) == sum(moved) + 3 + 5

    monkeypatch.undo()
    res = Resolution(960, 480)
    config = SessionConfig(
        segment_ms=500.0, fov=FieldOfView(100.0, 85.0), resolution=res, layout=variant_layout_26(res)
    )
    rows = (tmp_path / "out" / "segment_table.csv").read_text().strip().split("\n")[1:]
    expected = []
    for content, recipe, segments in (("a", recipes[0], (500, 2000, 6000)), ("b", recipes[1], (100, 1000))):
        trace = synthetic_trace(**recipe, fps=30.0)
        for segment_ms in segments:
            timeline = evaluate_session(trace, replace(config, segment_ms=float(segment_ms)))
            expected.append(f"{content},{segment_ms:g},1,{timeline.q_window:.6f},{timeline.f_window:.4f}")
    assert sorted(rows) == sorted(expected)


def test_study_builds_each_bank_once(tmp_path, capsys, monkeypatch):
    """study --method avaqm builds its own bank once for all traces, and
    each error-table grid's bank once."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"content": "a", "synthetic": {"seed": s, "duration_s": 1.0}} for s in range(3)]))
    grids = []
    build = vq360.session._bank_tile_sums

    def counted(config):
        grids.append(config.avaqm_grid)
        return build(config)

    monkeypatch.setattr(vq360.session, "_bank_tile_sums", counted)
    code, _, _ = run(
        capsys,
        "study", "--manifest", str(manifest), "--resolution", "960x480", "--method", "avaqm",
        "--grid", "5x10", "--segments", "500,1000", "--grids", "3x6", "--out", str(tmp_path / "out"),
    )
    assert code == 0
    assert grids == [(5, 10), (3, 6)]


def test_study_builds_one_config_per_segment_length(tmp_path, capsys, monkeypatch):
    """study resolves a footprint (_hq_table) once per config it builds:
    one from the flags, one per distinct segment length however many
    entries share it, and, for the error table, one for vaqm and one per
    bank grid.  With a footprint file, the file's config and then every
    length's are built again."""
    recipe = {"seed": 7, "duration_s": 1.0}
    manifest = tmp_path / "manifest.json"
    entries = [{"content": f"c{i}", "synthetic": dict(recipe, seed=i)} for i in range(4)]
    entries.append({"content": "d", "synthetic": recipe, "segment_ms": [100, 500, 1000]})
    manifest.write_text(json.dumps(entries))
    footprint = tmp_path / "footprint.json"
    mapping = {v: ((2, 3), (2, 4)) for v in range(26)}
    footprint.write_text(json.dumps({str(v): [list(t) for t in tiles] for v, tiles in mapping.items()}))
    calls = []
    hq_table = vq360.session._hq_table

    def counted(layout, hq_footprint):
        calls.append(hq_footprint)
        return hq_table(layout, hq_footprint)

    monkeypatch.setattr(vq360.session, "_hq_table", counted)
    argv = [
        "study", "--manifest", str(manifest), "--resolution", "960x480",
        "--segments", "500,2000,6000", "--grids", "3x6,5x10",
    ]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "rule"))
    assert code == 0
    assert len(calls) == 1 + 5 + 1 + 2
    calls.clear()
    code, _, _ = run(capsys, *argv, "--footprint", str(footprint), "--out", str(tmp_path / "file"))
    assert code == 0
    assert len(calls) == 1 + 3 + 1 + 5 + 1 + 2
    assert all(used == mapping for used in calls[4:])

    monkeypatch.undo()
    res = Resolution(960, 480)
    config = SessionConfig(
        segment_ms=500.0, fov=FieldOfView(100.0, 85.0), resolution=res, layout=variant_layout_26(res),
        hq_footprint=mapping,
    )
    trace = synthetic_trace(**recipe, fps=30.0)
    rows = (tmp_path / "file" / "segment_table.csv").read_text().strip().split("\n")[1:]
    for segment_ms in (100, 500, 1000):
        timeline = evaluate_session(trace, replace(config, segment_ms=float(segment_ms)))
        assert f"d,{segment_ms:g},1,{timeline.q_window:.6f},{timeline.f_window:.4f}" in rows


def test_study_segment_ms_sets_the_error_table_schedule(tmp_path, capsys):
    """--segment-ms is the segment length of the error table's variant
    schedule: 500 ms is no whole number of frames at 25 fps (exit 3), while
    400 ms is, and the table then matches approximation_error_study."""
    recipe = {"seed": 6, "duration_s": 2.0, "fps": 25.0}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"content": "a", "synthetic": recipe}]))
    argv = [
        "study", "--manifest", str(manifest), "--resolution", "960x480",
        "--segments", "400", "--grids", "3x6", "--out", str(tmp_path / "out"),
    ]
    code, _, err = run(capsys, *argv)
    assert code == 3 and "frame period" in err
    code, _, _ = run(capsys, *argv, "--segment-ms", "400")
    assert code == 0
    res = Resolution(960, 480)
    config = SessionConfig(
        segment_ms=400.0, fov=FieldOfView(100.0, 85.0), resolution=res, layout=variant_layout_26(res)
    )
    (report,) = approximation_error_study([synthetic_trace(**recipe)], config, [(3, 6)])
    rows = (tmp_path / "out" / "error_table.csv").read_text().strip().split("\n")
    assert rows[1] == f"3,6,{report.mean_relative_error:.6f},{report.excluded_frames}"


def test_study_can_skip_error_table(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"content": "walk", "synthetic": {"seed": 1, "duration_s": 1.0}},
    ]))
    code, _, _ = run(
        capsys,
        "study", "--manifest", str(manifest), "--resolution", "960x480",
        "--segments", "500", "--grids", "", "--out", str(tmp_path / "out"),
    )
    assert code == 0
    assert (tmp_path / "out" / "segment_table.csv").exists()
    assert not (tmp_path / "out" / "error_table.csv").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "mask", "--pog", "banana", "--out", str(tmp_path / "m.pgm"))
    assert code == 2 and "expected PoG" in err
    code, _, err = run(
        capsys,
        "evaluate", "--trace", "x.csv", "--method", "avaqm",
        "--out-prefix", str(tmp_path / "r"),
    )
    assert code == 2 and "--grid" in err
    with pytest.raises(SystemExit) as info:
        main(["mask", "--pog", "180,90"])  # missing required --out
    assert info.value.code == 2
    # Without the flag each of these exits 4 (missing input file).
    evaluate = ["evaluate", "--trace", "x.csv", "--out-prefix", str(tmp_path / "r")]
    study = ["study", "--manifest", "m.json", "--out", str(tmp_path / "s")]
    for argv in (
        evaluate + ["--bank", str(tmp_path / "b")],
        evaluate + ["--samples", "8"],
        study + ["--workers", "0"],
        ["bank", "--grid", "3x6", "--out", str(tmp_path / "b")],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    capsys.readouterr()
    # Masks carry no weight besides sin(phi), and no flag for one.
    with pytest.raises(SystemExit) as info:
        main(["mask", "--pog", "180,90", "--out", str(tmp_path / "m.pgm"), "--center-sigma", "30"])
    assert info.value.code == 2
    assert "unrecognized arguments: --center-sigma 30" in capsys.readouterr().err
    # Rejected before any input is read: the trace and manifest do not exist.
    mask = ["mask", "--pog", "180,90", "--resolution", "96x48", "--out", str(tmp_path / "m.pgm")]
    synth = ["synth-trace", "--out", str(tmp_path / "t.csv")]
    for argv, message in (
        (evaluate + ["--t-q", "1.5"], "t_q"),
        (evaluate + ["--t-q", "-0.1"], "t_q"),
        (study + ["--t-q", "nan"], "t_q"),
        (study + ["--segments", "500,fast"], "segment lengths"),
        (study + ["--fps", "nan"], "frame rate must be positive and finite"),
        (study + ["--fps", "inf"], "frame rate must be positive and finite"),
        (study + ["--fps", "0"], "frame rate must be positive and finite"),
        (study + ["--fps", "-30"], "frame rate must be positive and finite"),
        # Flags are checked before a --footprint file is read.
        (evaluate + ["--footprint", "missing.json", "--t-q", "2"], "t_q"),
        (evaluate + ["--footprint", "missing.json", "--fps", "7"], "frame period"),
        (study + ["--footprint", "missing.json", "--segments", "500,fast"], "segment lengths"),
        (study + ["--footprint", "missing.json", "--grids", "3x6,banana"], "grid"),
        (evaluate + ["--method", "vaqm", "--grid", "3x6"], "bank grid"),
        (study + ["--grid", "3x6"], "bank grid"),
        (study + ["--segment-ms", "0"], "segment length"),
        (study + ["--segment-ms", "nan"], "segment length"),
        (study + ["--segments", "0"], "segment length"),
        (study + ["--segments", "500,-500"], "segment length"),
        (study + ["--segments", "nan"], "segment length"),
        (study + ["--segments", "inf"], "segment length"),
        (study + ["--footprint", "missing.json", "--segments", "0"], "segment length"),
        # Non-finite numbers in any pair flag.
        (evaluate + ["--resolution", "infx2"], "finite resolution"),
        (evaluate + ["--resolution", "nanx2"], "finite resolution"),
        (evaluate + ["--method", "avaqm", "--grid", "infx2"], "finite grid"),
        (evaluate + ["--method", "avaqm", "--grid", "3xnan"], "finite grid"),
        (study + ["--grids", "3x6,infx2"], "finite grid"),
        (evaluate + ["--fov", "nan,85"], "finite FoV"),
        (mask + ["--resolution", "infx2"], "finite resolution"),
        (mask + ["--pog", "nan,0"], "finite PoG"),
        (mask + ["--pog", "10,inf"], "finite PoG"),
        (evaluate + ["--fov", "200,85"], "field of view"),
        (evaluate + ["--fps", "0"], "frame period"),
        (evaluate + ["--fps", "inf"], "frame period"),
        (evaluate + ["--fps", "7"], "frame period"),
        (mask + ["--fov", "0,85"], "field of view"),
        (mask + ["--resolution", "0x0"], "resolution"),
        (mask + ["--samples", "0"], "samples_per_side"),
        (synth + ["--duration-s", "0"], "no frames"),
        (synth + ["--duration-s", "inf"], "no frames"),
        (synth + ["--dwell", "2"], "dwell"),
        (synth + ["--speed", "inf"], "speed_deg_per_s must be non-negative and finite, got inf"),
        (synth + ["--speed", "nan"], "speed_deg_per_s must be non-negative and finite, got nan"),
        (synth + ["--speed", "-1"], "speed_deg_per_s must be non-negative and finite, got -1.0"),
        (synth + ["--turn-sigma", "-5"], "turn_sigma_deg must be non-negative and finite, got -5.0"),
        (synth + ["--turn-sigma", "inf"], "turn_sigma_deg must be non-negative and finite, got inf"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and message in err, argv
    assert not any(tmp_path.iterdir())


def test_data_errors_exit_3(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("frame,theta_deg,phi_deg\n0,10,45\n0,11,46\n")
    code, _, err = run(
        capsys,
        "evaluate", "--trace", str(trace), "--resolution", "960x480",
        "--out-prefix", str(tmp_path / "r"),
    )
    assert code == 3 and "duplicate frame" in err

    trace.write_bytes(b"frame,theta_deg,phi_deg\n0,10,45\n1,\xff\xfe,46\n")
    code, _, err = run(
        capsys,
        "evaluate", "--trace", str(trace), "--resolution", "960x480",
        "--out-prefix", str(tmp_path / "r"),
    )
    assert code == 3 and f"error: {trace}: 'utf-8' codec can't decode byte 0xff" in err

    # A row np.loadtxt refuses is named by its line.
    for row in ("0,10,45,", '"0",10,45'):
        trace.write_text(f"frame,theta_deg,phi_deg\n{row}\n")
        code, _, err = run(
            capsys,
            "evaluate", "--trace", str(trace), "--resolution", "960x480",
            "--out-prefix", str(tmp_path / "r"),
        )
        assert code == 3 and f"error: {trace}:2: malformed row" in err

    manifest = tmp_path / "empty.json"
    manifest.write_text("[]")
    code, _, err = run(
        capsys,
        "study", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
    )
    assert code == 3 and "non-empty" in err

    manifest.write_text("{not json")
    code, _, err = run(
        capsys,
        "study", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
    )
    assert code == 3 and f"error: {manifest}: Expecting property name" in err

    for entry, key in (
        ({"content": "walk", "synthetic": {"seed": 1, "speeed": 45.0}}, "speeed"),
        ({"label": "walk", "synthetic": {"seed": 1}}, "label"),
    ):
        manifest.write_text(json.dumps([entry]))
        code, _, err = run(
            capsys,
            "study", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
        )
        assert code == 3 and f"{manifest}: entry 0: unknown key '{key}'" in err

    for label in (["x"], 3, "a\rb"):
        entries = [{"content": content, "synthetic": {"seed": 1}} for content in ("ok", label)]
        manifest.write_text(json.dumps(entries))
        code, _, err = run(
            capsys,
            "study", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
        )
        assert code == 3 and f"{manifest}: entry 1: 'content' must be a string" in err

    # A recipe that synthetic_trace rejects is reported with its entry.
    for recipe, problem in (
        ({"seed": 1, "fps": 0}, "duration 60.0 s at 0 fps yields no frames"),
        ({"seed": 1, "speed_deg_per_s": -1}, "speed_deg_per_s must be non-negative and finite, got -1"),
        ({"seed": 1, "turn_sigma_deg": -5}, "turn_sigma_deg must be non-negative and finite, got -5"),
        ({"seed": 1, "dwell_probability": 2}, "dwell probability must lie in [0, 1], got 2"),
        ({"seed": 1, "duration_s": 0}, "duration 0 s at 30.0 fps yields no frames"),
    ):
        entries = [{"synthetic": {"seed": 1, "duration_s": 1.0}}, {"synthetic": recipe}]
        manifest.write_text(json.dumps(entries))
        code, _, err = run(
            capsys,
            "study", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
        )
        assert code == 3 and f"error: {manifest}: entry 1: {problem}" in err

    # A segment length that is no whole number of frames at an entry's rate
    # is reported with that entry and rate as soon as its trace is built,
    # before the next entry's trace is read: entry 2's file does not exist.
    walk = tmp_path / "walk.csv"
    walk.write_text("frame,theta_deg,phi_deg\n" + "".join(f"{i},{10 + i},45\n" for i in range(50)))
    fine = {"synthetic": {"seed": 1, "duration_s": 1.0, "fps": 30.0}, "segment_ms": 500}
    at_24 = {"seed": 2, "duration_s": 1.0, "fps": 24.0}
    missing = {"trace": str(tmp_path / "missing.csv")}
    for entries, flags, length, rate in (
        ([fine, {"synthetic": {"seed": 2, "duration_s": 1.0}}, missing], ["--segments", "500,1001"], "1001.0 ms", "30"),
        ([fine, {**fine, "segment_ms": [500, 1001]}, missing], [], "1001.0 ms", "30"),
        ([fine, {"trace": str(walk)}, missing], ["--fps", "25", "--segment-ms", "400"], "500.0 ms", "25"),
        ([fine, {"synthetic": at_24}, missing], ["--segments", "700"], "700.0 ms", "24"),
        # --segment-ms sets the error table's schedule of every entry.
        ([fine, {"synthetic": at_24, "segment_ms": 500}, missing], ["--segment-ms", "700"], "700.0 ms", "24"),
    ):
        manifest.write_text(json.dumps(entries))
        code, _, err = run(
            capsys,
            "study", "--manifest", str(manifest), "--resolution", "960x480", "--grids", "3x6",
            "--out", str(tmp_path / "out"), *flags,
        )
        assert code == 3 and (
            f"error: {manifest}: entry 1: segment of {length} is not a positive multiple "
            f"of the frame period at {rate} fps"
        ) in err, flags
    # Without --grids, --segment-ms sets no schedule and is not checked.
    manifest.write_text(json.dumps([fine]))
    code, _, _ = run(
        capsys,
        "study", "--manifest", str(manifest), "--resolution", "960x480", "--grids", "",
        "--segments", "500", "--segment-ms", "1001", "--out", str(tmp_path / "out"),
    )
    assert code == 0

    # Segment lengths are checked in the manifest, before any trace is read:
    # the listed trace does not exist.
    for segments in (0, math.nan, [500, -500]):
        manifest.write_text(json.dumps([{"trace": str(tmp_path / "missing.csv"), "segment_ms": segments}]))
        code, _, err = run(
            capsys,
            "study", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
        )
        assert code == 3 and f"{manifest}: entry 0: 'segment_ms' must be positive and finite" in err

    trace.write_text("frame,qw,qx,qy,qz\n0,1,0,0,0\n1,nan,0,0,0\n")
    code, _, err = run(
        capsys,
        "evaluate", "--trace", str(trace), "--resolution", "960x480",
        "--out-prefix", str(tmp_path / "r"),
    )
    assert code == 3 and f"{trace}:3: non-finite value" in err

    footprint = tmp_path / "footprint.json"
    for tiles in ([[1]], [1], 5):
        footprint.write_text(json.dumps({"0": tiles}))
        code, _, err = run(
            capsys,
            "evaluate", "--trace", str(trace), "--resolution", "960x480",
            "--footprint", str(footprint), "--out-prefix", str(tmp_path / "r"),
        )
        assert code == 3 and f"{footprint}: variant 0: " in err

    # A footprint file is checked against the layout before the trace or
    # the manifest is read: neither exists here.
    full = {str(v): [[2, 3]] for v in range(26)}
    for mapping, problem in (
        ({k: v for k, v in full.items() if k != "1"}, "footprint mapping has no entry for variant 1"),
        ({**full, "4": [[5, 0]]}, "footprint tile (5,0) outside 5x8 grid"),
        ({**full, "4": []}, "footprint for variant 4 is empty"),
        ({**full, "99": [[2, 3]], "-1": [[2, 3]]}, "footprint mapping names variant 99, outside 0..25"),
        ({**full, "01": [[0, 0]]}, "variant key '01' is not written as the plain decimal integer 1"),
        ({**full, "2_5": [[0, 0]]}, "variant key '2_5' is not written as the plain decimal integer 25"),
    ):
        footprint.write_text(json.dumps(mapping))
        for argv in (
            ["evaluate", "--trace", str(tmp_path / "missing.csv"), "--out-prefix", str(tmp_path / "r")],
            ["study", "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")],
        ):
            code, _, err = run(capsys, *argv, "--resolution", "960x480", "--footprint", str(footprint))
            assert code == 3 and f"error: {footprint}: {problem}" in err, argv
    footprint.write_text("{not json")
    code, _, err = run(
        capsys,
        "evaluate", "--trace", str(tmp_path / "missing.csv"), "--footprint", str(footprint),
        "--out-prefix", str(tmp_path / "r"),
    )
    assert code == 3 and f"error: {footprint}: " in err


def test_zero_area_names_its_first_frame(tmp_path, capsys):
    """A 0.001-degree viewport holds a pixel center only when its PoG is
    one: frame 0 has weight, frame 1 has none.  The error names frame 1
    and its PoG, and exits 3."""
    trace = tmp_path / "trace.csv"
    trace.write_text("frame,theta_deg,phi_deg\n0,180.1875,90.1875\n1,10,45\n2,20,50\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"content": "a", "trace": str(trace)}]))
    flags = ["--resolution", "960x480", "--fov", "0.001,0.001", "--fps", "10", "--segment-ms", "100"]
    for argv in (
        ["evaluate", "--trace", str(trace), "--out-prefix", str(tmp_path / "r")],
        ["study", "--manifest", str(manifest), "--segments", "100", "--grids", "", "--out", str(tmp_path / "s")],
        ["study", "--manifest", str(manifest), "--segments", "100", "--grids", "3x6", "--out", str(tmp_path / "e")],
    ):
        code, _, err = run(capsys, *argv, *flags)
        assert code == 3 and "error: mask has zero area at frame 1 (PoG theta 10.0, phi 45.0)" in err, argv


def test_io_errors_exit_4(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "evaluate", "--trace", str(tmp_path / "nope.csv"),
        "--resolution", "960x480", "--out-prefix", str(tmp_path / "r"),
    )
    assert code == 4 and "nope.csv" in err


# The command line's help at 100 columns: a change to a command, a flag or
# its help changes this text on purpose.
HELP = {
    "": """\
usage: vq360 [-h] {mask,evaluate,study,synth-trace} ...

Viewport quality of 360 video sessions on equirectangular frames.

positional arguments:
  {mask,evaluate,study,synth-trace}
    mask                export a viewport mask raster
    evaluate            score one head-movement trace
    study               batch sessions and aggregate tables from a manifest
    synth-trace         generate a seeded random-walk trace CSV

options:
  -h, --help            show this help message and exit
""",
    "mask": """\
usage: vq360 mask [-h] [--fov FOV] [--resolution RESOLUTION] [--samples SAMPLES] --pog POG
                  [--exact] --out OUT [--npz NPZ]

options:
  -h, --help            show this help message and exit
  --fov FOV             horizontal,vertical field of view in degrees
  --resolution RESOLUTION
                        frame size as WIDTHxHEIGHT pixels
  --samples SAMPLES     boundary samples per viewport side (ignored with --exact)
  --pog POG             point of gaze as theta,phi in degrees
  --exact               use the per-pixel membership oracle
  --out OUT             output PGM path
  --npz NPZ             also write a lossless NPZ raster
""",
    "evaluate": """\
usage: vq360 evaluate [-h] [--fov FOV] [--resolution RESOLUTION] [--segment-ms SEGMENT_MS]
                      [--fps FPS] [--convention {y-up,z-up}] [--method {vaqm,avaqm}] [--grid GRID]
                      [--footprint FOOTPRINT] [--t-q T_Q] [--normalization {mask-area,analytic}]
                      --trace TRACE --out-prefix OUT_PREFIX

options:
  -h, --help            show this help message and exit
  --fov FOV             horizontal,vertical field of view in degrees
  --resolution RESOLUTION
                        frame size as WIDTHxHEIGHT pixels
  --segment-ms SEGMENT_MS
                        segment length in milliseconds; in study, only of the error table's
                        variant schedule
  --fps FPS             trace frame rate in frames per second
  --convention {y-up,z-up}
                        axis convention for quaternion traces
  --method {vaqm,avaqm}
                        project the mask per frame (vaqm) or reuse the nearest precomputed mask
                        (avaqm)
  --grid GRID           bank grid as ROWSxCOLS (avaqm)
  --footprint FOOTPRINT
                        HQ footprint: area-only, area+neighbors, or a JSON file path
  --t-q T_Q             quality threshold in [0,1]
  --normalization {mask-area,analytic}
                        divide by the mask weight sum or by the closed-form viewport pixel count
  --trace TRACE         trace CSV (canonical or quaternion header)
  --out-prefix OUT_PREFIX
                        prefix for _frames.csv and _summary.json
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"] if command else ["--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def test_mask_samples_default_is_defined_once(tmp_path, capsys):
    """Without --samples, mask projects with mask.DEFAULT_SAMPLES_PER_SIDE,
    the one definition of 64, which cli reads only when the command runs."""
    from vq360 import mask

    assert mask.DEFAULT_SAMPLES_PER_SIDE == 64
    assert inspect.signature(mask.project_viewport).parameters["samples_per_side"].default == 64
    tree = ast.parse(pathlib.Path(vq360.cli.__file__).read_text())
    assert not any(isinstance(node, ast.Constant) and node.value == 64 for node in ast.walk(tree))
    top_level = [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert "mask" not in top_level and "session" in top_level
    outputs = []
    for samples in ([], ["--samples", "64"], ["--samples", "4"]):
        out = tmp_path / f"mask{len(outputs)}.npz"
        code, _, _ = run(
            capsys,
            "mask", "--pog", "250,20", "--resolution", "960x480",
            "--out", str(tmp_path / "mask.pgm"), "--npz", str(out), *samples,
        )
        assert code == 0
        outputs.append(read_npz(out)["weights"])
    assert np.array_equal(outputs[0], outputs[1])
    assert not np.array_equal(outputs[0], outputs[2])


def imported_modules(tmp_path, *argv):
    """Modules a fresh ``python -m vq360.cli`` process imports, read from
    its -X importtime report."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "vq360.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(vq360.cli.__file__))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[-1].strip() for line in lines[1:]}


@pytest.mark.parametrize(
    "method", [["--method", "vaqm"], ["--method", "avaqm", "--grid", "3x6"]], ids=["vaqm", "avaqm"]
)
def test_evaluate_loads_neither_the_dense_path_nor_csv(tmp_path, method):
    """evaluate runs on the span kernel alone: a one-frame run never loads
    vq360.mask, and csv, which only study's tables use, stays unloaded."""
    trace = tmp_path / "trace.csv"
    trace.write_text("frame,theta_deg,phi_deg\n0,10,45\n")
    modules = imported_modules(
        tmp_path, "evaluate", "--trace", str(trace), "--resolution", "96x48", "--out-prefix", "r", *method
    )
    assert {"vq360.session", "vq360.spans"} <= modules
    assert "vq360.mask" not in modules
    assert "csv" not in modules


def test_study_does_not_load_the_dense_path(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("frame,theta_deg,phi_deg\n0,10,45\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"content": "a", "trace": str(trace)}]))
    modules = imported_modules(
        tmp_path,
        "study", "--manifest", str(manifest), "--resolution", "96x48",
        "--segments", "500", "--grids", "3x6", "--out", "s",
    )
    assert {"vq360.session", "vq360.spans", "csv"} <= modules
    assert "vq360.mask" not in modules
