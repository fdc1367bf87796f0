"""The byte-identity check: its comparison of two output directories
and its extra cases."""

import importlib.util
import pathlib
import re
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("bench_same_outputs", ROOT / "bench" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, files):
    for name, payload in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)


FILES = {
    "run_frames.csv": b"frame,q\n0,0.5\n1,0.25\n",
    "run_summary.json": b'{"q_window": 0.375}\n',
    "tables/segment_table.csv": b"content,segment_ms\nwalk,500\n",
}


def test_identical_directories_do_not_differ(tmp_path, same_outputs):
    write_tree(tmp_path / "a", FILES)
    write_tree(tmp_path / "b", FILES)
    assert same_outputs.differing_files(str(tmp_path / "a"), str(tmp_path / "b")) == []


def test_verdict_needs_a_written_file(tmp_path, same_outputs):
    """Two runs that wrote nothing agree, but compared nothing: a failure."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert same_outputs.differing_files(str(tmp_path / "a"), str(tmp_path / "b")) == []
    assert same_outputs.compare_outputs(str(tmp_path / "a"), str(tmp_path / "b")) == (
        False,
        "no output file written, nothing compared",
    )
    write_tree(tmp_path / "c", FILES)
    write_tree(tmp_path / "d", FILES)
    assert same_outputs.compare_outputs(str(tmp_path / "c"), str(tmp_path / "d")) == (
        True,
        "identical (run_frames.csv, run_summary.json, tables/segment_table.csv)",
    )
    # Files on one side only differ, whichever side is empty.
    assert same_outputs.compare_outputs(str(tmp_path / "a"), str(tmp_path / "c"))[0] is False
    assert same_outputs.compare_outputs(str(tmp_path / "c"), str(tmp_path / "a")) == (
        False,
        "DIFFERENT run_frames.csv, run_summary.json, tables/segment_table.csv",
    )


def test_one_changed_byte_and_missing_files_differ(tmp_path, same_outputs):
    write_tree(tmp_path / "a", FILES)
    changed = dict(FILES)
    # 0.25 and 0.26 differ in one byte; the line count is the same.
    changed["run_frames.csv"] = FILES["run_frames.csv"].replace(b"0.25", b"0.26")
    del changed["run_summary.json"]
    changed["extra.csv"] = b""
    write_tree(tmp_path / "b", changed)
    assert same_outputs.differing_files(str(tmp_path / "a"), str(tmp_path / "b")) == [
        "extra.csv",
        "run_frames.csv",
        "run_summary.json",
    ]
    # A nested file is compared by its relative path.
    write_tree(tmp_path / "c", dict(FILES, **{"tables/segment_table.csv": b"content,segment_ms\nwalk,501\n"}))
    assert same_outputs.differing_files(str(tmp_path / "a"), str(tmp_path / "c")) == ["tables/segment_table.csv"]


def test_a_differing_frame_series_reports_its_size(tmp_path, same_outputs):
    """A differing _frames.csv also reports how many frames differ, a frame
    on one side only included, and the largest |dq_frame|."""
    write_tree(tmp_path / "a", FILES)
    frames = b"frame,q\n0,0.5000000000000001\n1,0.25\n2,1.0\n"
    write_tree(tmp_path / "b", dict(FILES, **{"run_frames.csv": frames, "run_summary.json": b"{}\n"}))
    assert same_outputs.compare_outputs(str(tmp_path / "b"), str(tmp_path / "a")) == (
        False,
        "DIFFERENT run_frames.csv, run_summary.json; run_frames.csv: 2 of 3 frames differ, max |dq_frame| 1.11e-16",
    )
    # A frame series on one side only has nothing to count.
    write_tree(tmp_path / "c", dict(FILES, **{"extra_frames.csv": frames}))
    assert same_outputs.compare_outputs(str(tmp_path / "c"), str(tmp_path / "a")) == (
        False,
        "DIFFERENT extra_frames.csv",
    )


def moved_frames(path):
    """Frame count and moved-frame count (PoG differs from the frame
    before's, frame 0 included) of a canonical trace CSV."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    pogs = rows[:, 1:]
    return len(pogs), 1 + int(np.count_nonzero((pogs[1:] != pogs[:-1]).any(axis=1)))


def test_dwell_case_repeats_pogs_under_both_methods(tmp_path, same_outputs):
    commands = same_outputs.dwell_commands(str(ROOT), str(tmp_path), 7)
    (n_long, moved_long), (n_short, moved_short) = (
        moved_frames(tmp_path / f"dwell-{label}.csv") for label in ("long", "short")
    )
    assert n_long == 600 and 0.6 * n_long < moved_long < 0.8 * n_long
    assert moved_short < 47 <= n_short == 51
    runs = [(argv[0], argv[argv.index("--grid") + 1] if "--grid" in argv else "vaqm") for argv in commands]
    evaluate = [("evaluate", "vaqm"), ("evaluate", "10x20")] + [("evaluate", "vaqm")] * 3
    assert runs == evaluate * 2 + [("study", "vaqm"), ("study", "5x10")]
    assert all(argv[argv.index("--resolution") + 1] == "960x480" for argv in commands)
    # Each trace is also scored by vaqm at a narrow, a wide and a widest field of view.
    fovs = [argv[argv.index("--fov") + 1] if "--fov" in argv else None for argv in commands]
    assert fovs == [None, None, "60,40", "120,90", "170,150"] * 2 + [None, None]


def test_dwell_case_is_compared(capsys, monkeypatch, same_outputs):
    # main puts perfbench/ on the path for its workloads.
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = str(ROOT)
    argv = ["--checkout", root, "--parent-checkout", root, "--seeds", "7"]
    assert same_outputs.main(argv + ["--workload", "banana"]) == 2
    assert "known: vaqm-4k, avaqm-long, study-sweep, dwell" in capsys.readouterr().err
    assert same_outputs.main(argv + ["--workload", "dwell"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("dwell seed 7: identical (long-avaqm_frames.csv, ")
    assert line.endswith(", study-vaqm/error_table.csv, study-vaqm/segment_table.csv)")


def test_mask_case_exports_both_builders_at_each_pog(same_outputs):
    commands = same_outputs.mask_commands()
    assert all(argv[0] == "mask" for argv in commands)
    pogs = [(argv[argv.index("--resolution") + 1], argv[argv.index("--pog") + 1]) for argv in commands]
    assert pogs[::2] == pogs[1::2] == [(res, pog) for _, res, pog in same_outputs.MASK_POGS]
    assert [res for res, _ in pogs].count("3840x1920") == 2
    assert ["--exact" in argv for argv in commands] == [False, True] * len(same_outputs.MASK_POGS)
    outputs = [(argv[argv.index("--out") + 1], argv[argv.index("--npz") + 1]) for argv in commands]
    assert len({path for pair in outputs for path in pair}) == 2 * len(commands)


def test_mask_case_is_compared_once(capsys, monkeypatch, same_outputs):
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = str(ROOT)
    argv = ["--checkout", root, "--parent-checkout", root, "--seeds", "7,8", "--workload", "mask"]
    assert same_outputs.main(argv) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    assert line.startswith("mask seed 7: identical (equator-exact.npz, equator-exact.pgm, equator.npz, ")
    assert line.endswith(", seam-exact.pgm, seam.npz, seam.pgm)")


def test_tie_case_scores_tie_points_by_avaqm_at_each_grid(tmp_path, same_outputs):
    commands = same_outputs.tie_commands(str(tmp_path))
    assert [argv[argv.index("--grid") + 1] for argv in commands] == ["3x6", "7x13", "10x20", "20x40", "4x1", "1x5"]
    assert all(argv[0] == "evaluate" and argv[argv.index("--method") + 1] == "avaqm" for argv in commands)
    rows = np.loadtxt(tmp_path / "ties.csv", delimiter=",", skiprows=1)
    assert rows[:, 0].tolist() == list(range(len(rows)))
    pogs = set(map(tuple, rows[:, 1:].tolist()))
    assert pogs == set(same_outputs.tie_pogs())
    for rows_, cols in same_outputs.TIE_GRIDS:
        d_theta, d_phi = 360.0 / cols, 180.0 / rows_
        for nudge in (-1e-13, 0.0, 1e-13):
            # A center, a cell corner off the seam (a one-column bank has
            # none) and one on it, and the points halfway between two
            # centers of a row and of a column.
            assert ((1.5 * d_theta) % 360.0, 0.5 * d_phi + nudge) in pogs
            if cols > 1:
                assert (d_theta + nudge, d_phi) in pogs
            assert (nudge % 360.0, d_phi) in pogs
            assert (d_theta % 360.0, 0.5 * d_phi + nudge) in pogs
            assert (0.5 * d_theta + nudge, d_phi) in pogs
    assert {(0.0, 0.0), (0.0, 180.0), (0.0, 90.0), (np.nextafter(360.0, 0.0), 90.0)} <= pogs


def test_tie_case_is_compared_once(capsys, monkeypatch, same_outputs):
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = str(ROOT)
    argv = ["--checkout", root, "--parent-checkout", root, "--seeds", "7,8", "--workload", "ties"]
    assert same_outputs.main(argv) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    assert line == (
        "ties seed 7: identical (ties-10x20_frames.csv, ties-10x20_summary.json, ties-1x5_frames.csv, "
        "ties-1x5_summary.json, ties-20x40_frames.csv, ties-20x40_summary.json, ties-3x6_frames.csv, "
        "ties-3x6_summary.json, ties-4x1_frames.csv, ties-4x1_summary.json, ties-7x13_frames.csv, "
        "ties-7x13_summary.json)"
    )


def test_zup_case_reads_quaternions_under_z_up(tmp_path, same_outputs):
    trace = tmp_path / "quaternions.csv"
    trace.write_text("frame,qw,qx,qy,qz\n0,1,0,0,0\n")
    commands = same_outputs.zup_commands(str(trace))
    assert all(argv[:3] == ("evaluate", "--trace", str(trace)) for argv in commands)
    assert all(argv[argv.index("--convention") + 1] == "z-up" for argv in commands)
    assert [argv[argv.index("--grid") + 1] if "--grid" in argv else "vaqm" for argv in commands] == ["vaqm", "10x20"]


def test_zup_case_is_compared_at_each_seed(capsys, monkeypatch, same_outputs):
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = str(ROOT)
    argv = ["--checkout", root, "--parent-checkout", root, "--seeds", "7,8", "--workload", "z-up"]
    assert same_outputs.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    files = "z-up-avaqm_frames.csv, z-up-avaqm_summary.json, z-up-vaqm_frames.csv, z-up-vaqm_summary.json"
    assert lines == [f"z-up seed {seed}: identical ({files})" for seed in (7, 8)]


def test_ingest_case_writes_every_accepted_form(tmp_path, same_outputs):
    from vq360.session import parse_trace

    commands = same_outputs.ingest_commands(str(tmp_path), 7)
    names = ["ingest-angles.csv", "ingest-quaternions.csv"]
    assert [argv[2] for argv in commands] == [str(tmp_path / name) for name in names for _ in range(2)]
    assert [argv[argv.index("--grid") + 1] if "--grid" in argv else "vaqm" for argv in commands] == ["vaqm", "10x20"] * 2
    for name in names:
        text = (tmp_path / name).read_bytes().decode("ascii")
        assert text == same_outputs.ingest_texts(7)[name]
        rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")[1:]
        frames = [int(row.split(",")[0]) for row in rows if row]
        assert sorted(frames) == list(range(same_outputs.INGEST_FRAMES)) and frames != sorted(frames)
        assert "" in rows and not text.endswith(("\n", "\r"))
        # CRLF, lone CR and LF line ends, then padded header names and numbers.
        assert "\r\n" in text and re.search("\r[^\n]", text) and re.search("[^\r]\n", text)
        assert text.split(",")[0] in ("frame ", " frame")
        for form in ("1e-400", "5e-324", "-0.0", ",+", "\t,", ", "):
            assert form in text
        assert re.search(r"\de[+-]\d", text) and re.search(r"\dE[+-]\d", text)
        assert parse_trace(str(tmp_path / name)).n_frames == same_outputs.INGEST_FRAMES
    assert same_outputs.ingest_texts(7) != same_outputs.ingest_texts(8)


def test_ingest_case_is_compared_at_each_seed(capsys, monkeypatch, same_outputs):
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = str(ROOT)
    argv = ["--checkout", root, "--parent-checkout", root, "--seeds", "7,8", "--workload", "ingest"]
    assert same_outputs.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    files = ", ".join(
        f"ingest-{trace}-{method}_{kind}"
        for trace in ("angles", "quaternions")
        for method in ("avaqm", "vaqm")
        for kind in ("frames.csv", "summary.json")
    )
    assert lines == [f"ingest seed {seed}: identical ({files})" for seed in (7, 8)]


def test_equator_case_pans_the_per_face_rows(tmp_path, same_outputs):
    """Each field of view's trace pans theta at phi = 90, v/2 and 180 - v/2,
    and is scored by vaqm at both resolutions."""
    from vq360.geometry import FieldOfView, Resolution
    from vq360.spans import _gazes

    commands = same_outputs.equator_commands(str(tmp_path))
    assert all(argv[0] == "evaluate" and "--method" not in argv for argv in commands)
    runs = [(argv[argv.index("--fov") + 1], argv[argv.index("--resolution") + 1]) for argv in commands]
    assert runs == [(fov, res) for fov in ("100,85", "60,40", "120,90", "170,150") for res in ("3840x1920", "960x480")]
    for fov in same_outputs.EQUATOR_FOVS:
        rows = np.loadtxt(tmp_path / f"equator-{fov.replace(',', 'x')}.csv", delimiter=",", skiprows=1)
        assert rows[:, 0].tolist() == list(range(3 * same_outputs.EQUATOR_STEPS))
        half_v = float(fov.split(",")[1]) / 2.0
        assert sorted(set(rows[:, 2].tolist())) == [half_v, 90.0, 180.0 - half_v]
        assert rows[:, 1].min() == 0.0 and rows[:, 1].max() < 360.0
        # Every gaze point has a near-vertical face plane: its spans are taken face by face.
        gazes = _gazes(rows[:, 1], rows[:, 2], FieldOfView(*map(float, fov.split(","))), Resolution(960, 480))
        assert all(gaze.steep for gaze in gazes)


def test_equator_case_is_compared_once(capsys, monkeypatch, same_outputs):
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = str(ROOT)
    argv = ["--checkout", root, "--parent-checkout", root, "--seeds", "7,8", "--workload", "equator"]
    assert same_outputs.main(argv) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    assert line.startswith("equator seed 7: identical (equator-3840x1920-100x85_frames.csv, ")
    assert line.endswith(", equator-960x480-60x40_summary.json)") and line.count("_frames.csv") == 8
