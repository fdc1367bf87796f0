"""Tests for spatial and temporal pooling."""

import numpy as np
import pytest

from vq360.geometry import FieldOfView, Resolution, SphericalPoint, equivalent_pixels_viewport
from vq360.grade import GradeMap
from vq360.mask import ViewportMask, project_viewport
from vq360.pooling import (
    DEFAULT_T_Q,
    FrameQuality,
    frame_quality,
    make_timeline,
    write_frame_csv,
)

RES = Resolution(16, 8)
FOV = FieldOfView(100.0, 85.0)


def toy_mask(rng, res=RES):
    """Random sparse weighted raster standing in for a projected mask."""
    weights = (rng.uniform(0.0, 1.0, (res.n_v, res.n_h)) * (rng.random((res.n_v, res.n_h)) < 0.6)).astype(
        np.float32
    )
    if not weights.any():
        weights[res.n_v // 2, res.n_h // 2] = 0.5
    return ViewportMask(
        resolution=res,
        weights=weights,
        pog=SphericalPoint(180.0, 90.0),
        fov=FOV,
        area=float(weights.sum(dtype=np.float64)),
    )


def pooled_oracle(weights, grades):
    """Element-by-element Hadamard sum, no vectorization."""
    numerator = 0.0
    denominator = 0.0
    for r in range(weights.shape[0]):
        for c in range(weights.shape[1]):
            numerator += float(weights[r, c]) * float(grades[r, c])
            denominator += float(weights[r, c])
    return numerator / denominator


def test_frame_quality_matches_double_loop_oracle():
    rng = np.random.default_rng(61)
    for _ in range(100):
        mask = toy_mask(rng)
        grade = GradeMap(RES, rng.uniform(0.0, 1.0, (RES.n_v, RES.n_h)))
        expected = pooled_oracle(mask.weights, grade.grades)
        assert frame_quality(mask, grade).q_frame == pytest.approx(expected, abs=1e-12)


def test_all_ones_grade_gives_unit_quality():
    rng = np.random.default_rng(67)
    ones = GradeMap(RES, np.ones((RES.n_v, RES.n_h)))
    for _ in range(20):
        result = frame_quality(toy_mask(rng), ones)
        assert result.q_frame == pytest.approx(1.0, abs=1e-12)


def test_full_raster_sum_equals_masked_support_sum():
    """Zero weights outside the viewport make both summation orders agree."""
    rng = np.random.default_rng(71)
    mask = toy_mask(rng)
    grade = GradeMap(RES, rng.uniform(0.0, 1.0, (RES.n_v, RES.n_h)))
    support = mask.weights > 0.0
    masked_sum = float(np.sum(mask.weights[support] * grade.grades[support], dtype=np.float64))
    full_sum = float(np.sum(mask.weights * grade.grades, dtype=np.float64))
    assert full_sum == pytest.approx(masked_sum, abs=1e-12)
    assert frame_quality(mask, grade).q_frame == pytest.approx(masked_sum / mask.area, abs=1e-12)


def test_quality_bounded_and_monotone_in_grades():
    rng = np.random.default_rng(73)
    for _ in range(30):
        mask = toy_mask(rng)
        grades = rng.uniform(0.0, 0.9, (RES.n_v, RES.n_h))
        bump = rng.uniform(0.0, 0.1, (RES.n_v, RES.n_h))
        low = frame_quality(mask, GradeMap(RES, grades)).q_frame
        high = frame_quality(mask, GradeMap(RES, grades + bump)).q_frame
        assert 0.0 <= low <= 1.0
        assert high >= low - 1e-12


def test_analytic_normalization_uses_closed_form():
    res = Resolution(960, 480)
    mask = project_viewport(SphericalPoint(180.0, 90.0), FOV, res)
    ones = GradeMap(res, np.ones((res.n_v, res.n_h)))
    result = frame_quality(mask, ones, normalization="analytic")
    expected_area = equivalent_pixels_viewport(res, FOV)
    assert result.mask_area_used == pytest.approx(expected_area)
    assert result.q_frame == pytest.approx(mask.area / expected_area, rel=1e-12)
    assert result.q_frame == pytest.approx(1.0, rel=0.01)


def test_frame_quality_validation():
    rng = np.random.default_rng(79)
    mask = toy_mask(rng)
    grade = GradeMap(Resolution(32, 16), np.ones((16, 32)))
    with pytest.raises(ValueError):
        frame_quality(mask, grade)
    with pytest.raises(ValueError):
        frame_quality(mask, GradeMap(RES, np.ones((8, 16))), normalization="banana")
    empty = ViewportMask(RES, np.zeros((8, 16), dtype=np.float32), mask.pog, FOV, 0.0)
    with pytest.raises(ValueError):
        frame_quality(empty, GradeMap(RES, np.ones((8, 16))))


def test_window_mean_and_fraction():
    values = [0.5, 0.9, 0.8, 1.0]
    area = np.ones(4)
    assert make_timeline(values, area).q_window == pytest.approx(0.8)
    # strictly above the threshold: 0.8 itself does not count
    assert make_timeline(values, area, t_q=0.8).f_window == pytest.approx(50.0)
    assert make_timeline(values, area, t_q=0.0).f_window == pytest.approx(100.0)
    assert make_timeline(values, area, t_q=1.0).f_window == pytest.approx(0.0)
    with pytest.raises(ValueError, match="threshold"):
        make_timeline(values, area, t_q=1.5)
    with pytest.raises(ValueError, match="empty window"):
        make_timeline([], [])


def test_make_timeline_aggregates():
    q = np.array([0.7, 0.9, 0.95])
    timeline = make_timeline(q, np.ones(3), t_q=0.8)
    assert timeline.threshold == 0.8
    assert timeline.q_window == pytest.approx(0.85)
    assert timeline.f_window == pytest.approx(200.0 / 3.0)
    assert timeline.q_frame.tolist() == q.tolist()
    assert make_timeline(q, np.ones(3)).threshold == DEFAULT_T_Q


def test_timeline_holds_read_only_copies_and_builds_frames_on_demand():
    q = np.array([0.25, 0.5, 1.0])
    area = np.array([3.0, 2.0, 1.0])
    timeline = make_timeline(q, area)
    q[0] = 0.0
    assert timeline.q_frame.tolist() == [0.25, 0.5, 1.0]
    for values in (timeline.q_frame, timeline.mask_area):
        assert values.dtype == np.float64 and not values.flags.writeable
    assert "frames" not in vars(timeline)
    assert timeline.frames == tuple(FrameQuality(i, q, a) for i, (q, a) in enumerate(zip([0.25, 0.5, 1.0], area)))
    assert timeline.frames is timeline.frames
    assert timeline != make_timeline(timeline.q_frame, timeline.mask_area)


@pytest.mark.parametrize(
    "q",
    [
        [0.0, 1.0, 5e-324, 1.0 / 3.0, 0.1 + 0.2, 1.0 - 2.0**-53],
        np.random.default_rng(8).random(36000),
        [0.0, -0.0, 0.0, -0.0],
        [0.75],
        np.repeat([0.25, 1.0 / 3.0, 0.0, 0.25, 1.0], [5000, 1, 7000, 3, 2000]),
        np.repeat(np.random.default_rng(9).random(40), 9)[::2],
        np.random.default_rng(10).random(300, dtype=np.float32).repeat(3),
        [],
        *(np.random.default_rng(n).choice([0.0, 0.25, 1.0 / 3.0, 1.0], n) for n in (9, 10, 11, 99, 100, 101, 100_001)),
    ],
    ids=[
        "edge values", "36000 random", "signed zeros", "one frame", "long runs", "strided view", "float32", "empty",
        *(f"{n} frames" for n in (9, 10, 11, 99, 100, 101, 100_001)),
    ],
)
def test_write_frame_csv_bytes(tmp_path, q):
    """The same bytes as formatting each row with an f-string, although
    each distinct value is formatted once; frame counts on either side of
    a new digit, and the empty series, which writes the header alone."""
    path = tmp_path / "frames.csv"
    write_frame_csv(np.asarray(q), str(path))
    rows = "".join(f"{index},{value!r}\n" for index, value in enumerate(np.asarray(q, dtype=np.float64).tolist()))
    assert path.read_bytes() == ("frame,q_frame\n" + rows).encode("ascii")


def test_write_frame_csv_round_trip(tmp_path):
    q = 1.0 / np.arange(1, 6)
    path = tmp_path / "frames.csv"
    write_frame_csv(q, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "frame,q_frame"
    for i, line in enumerate(lines[1:]):
        index, value = line.split(",")
        assert int(index) == i
        assert float(value) == q[i]
