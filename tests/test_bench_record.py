"""The benchmark recorder's summaries: medians and quartiles, parent
against change, and the flag on runs whose reference kernel ran slow;
and its strict reading of a run's result line.

The frames/s and reference kernel means are those of the study-sweep
parent runs at seeds 8211-8215 in BENCH_pr7.json, where the run at seed
8212 read 31175 frames/s because its reference kernel mean was 0.0226 s
against 0.0132-0.0141 s; the set-up times are made up.
"""

import importlib.util
import json
import math
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPECS = {
    "frames_per_s": {"unit": "frames/s", "better": "higher", "section": "end_to_end"},
    "setup_s": {"unit": "s", "better": "lower", "section": "end_to_end"},
    "mask.spans.calls": {"unit": "count", "better": "lower", "section": "per_layer"},
}

# (seed, frames_per_s, setup_s, reference_kernel_mean_s)
PARENT = [
    (8211, 19116.39136742365, 0.2700, 0.013784066881420615),
    (8212, 31174.95005641513, 0.2870, 0.02256208290447691),
    (8213, 18653.91636409681, 0.2722, 0.013271118525289971),
    (8214, 18965.721412572293, 0.2754, 0.014063980044905906),
    (8215, 19500.282110395652, 0.2690, 0.013213779807564314),
]


def runs_of(rows):
    return [
        {
            "seed": seed,
            "exit": 0,
            "metrics": {"frames_per_s": fps, "setup_s": setup},
            "record": {"reference_kernel_mean_s": reference},
        }
        for seed, fps, setup, reference in rows
    ]


def test_outlier_is_the_slow_reference_run(record):
    assert record.reference_outliers(runs_of(PARENT)) == [
        {"seed": 8212, "reference_kernel_mean_s": 0.02256208290447691}
    ]


def test_no_outlier_within_the_ratio(record):
    # 1.5x the median 0.0137 s is 0.02055 s.
    rows = [row[:3] + (ref,) for row, ref in zip(PARENT, (0.0137, 0.0205, 0.0133, 0.0141, 0.0132))]
    assert record.reference_outliers(runs_of(rows)) == []


def test_runs_without_a_reference_mean_are_skipped(record):
    runs = runs_of(PARENT)
    del runs[0]["record"]["reference_kernel_mean_s"]
    runs[2] = {"seed": 8213, "exit": 1, "error": "no record or result line"}
    assert [o["seed"] for o in record.reference_outliers(runs)] == [8212]
    assert record.reference_outliers([runs[2]]) == []


def test_summarize_keeps_every_run(record):
    summary = record.summarize(runs_of(PARENT), SPECS)
    fps = summary["frames_per_s"]
    assert fps["n"] == 5
    assert fps["median"] == 19116.39136742365
    assert fps["q1"] == 18965.721412572293
    assert fps["q3"] == 19500.282110395652
    assert fps["median_without_outliers"] == statistics.median([19116.39136742365, 18653.91636409681,
                                                                 18965.721412572293, 19500.282110395652])
    assert fps["unit"] == "frames/s"
    assert summary["setup_s"]["median"] == 0.2722
    assert summary["setup_s"]["median_without_outliers"] == pytest.approx((0.2700 + 0.2722) / 2)
    assert set(summary) == {"frames_per_s", "setup_s"}


def test_summarize_of_one_run(record):
    summary = record.summarize(runs_of(PARENT[1:2]), SPECS)
    assert summary["frames_per_s"]["median"] == summary["frames_per_s"]["q1"] == summary["frames_per_s"]["q3"]
    assert summary["frames_per_s"]["median_without_outliers"] == 31174.95005641513


def test_compare_counts_wins_and_gaps(record):
    parent = runs_of(PARENT)
    # The change is 5% faster on every pair except the outlier's.
    change = runs_of([(seed, 1.05 * fps if seed != 8212 else 20000.0, setup - 0.001, ref)
                      for seed, fps, setup, ref in PARENT])
    versus = record.compare(change, parent, SPECS)
    assert set(versus) == {"frames_per_s", "setup_s"}
    fps = versus["frames_per_s"]
    assert fps["pairs"] == 5 and fps["change_wins"] == 4
    assert fps["parent_median"] == 19116.39136742365
    assert fps["change_median"] == 20000.0
    assert fps["median_gap"] == fps["change_median"] - fps["parent_median"]
    assert fps["parent_iqr"] == 19500.282110395652 - 18965.721412572293
    assert versus["setup_s"]["change_wins"] == 5
    assert versus["setup_s"]["better"] == "lower"


def test_compare_counts_ties_for_neither(record):
    parent = runs_of(PARENT)
    versus = record.compare(parent, parent, SPECS)
    assert versus["frames_per_s"]["change_wins"] == 0
    assert versus["frames_per_s"]["median_gap"] == 0.0


RESULT = {
    "correct": True,
    "attempted": 4,
    "failed": 0,
    "metrics": {"frames_per_s": {"value": 6406.5, "unit": "frames/s"}, "setup_s": {"value": 0.27, "unit": "s"}},
}


def test_result_line_gives_the_run_fields(record):
    assert record.parse_result_line(json.dumps(RESULT)) == {
        "correct": True, "attempted": 4, "failed": 0, "metrics": {"frames_per_s": 6406.5, "setup_s": 0.27},
    }


@pytest.mark.parametrize(
    "line",
    [
        json.dumps(dict(RESULT, metrics={"frames_per_s": {"value": math.nan, "unit": "frames/s"}})),
        json.dumps(dict(RESULT, metrics={"setup_s": {"value": -math.inf, "unit": "s"}})),
        json.dumps(dict(RESULT, failed=math.inf)),
        *(json.dumps({k: v for k, v in RESULT.items() if k != key}) for key in RESULT),
        json.dumps(dict(RESULT, metrics={"frames_per_s": {"unit": "frames/s"}})),
        json.dumps(dict(RESULT, metrics={"frames_per_s": 6406.5})),
        json.dumps(dict(RESULT, metrics=[1, 2])),
        json.dumps([RESULT]),
        "frames_per_s 6406.5 frames/s (higher is better)",
        "",
    ],
    ids=["NaN", "-Infinity", "Infinity count", "no correct", "no attempted", "no failed", "no metrics",
         "no value", "bare value", "metrics list", "list", "not JSON", "empty"],
)
def test_malformed_result_lines_are_refused(record, line):
    assert record.parse_result_line(line) is None


def test_run_once_records_a_malformed_result_line(record, tmp_path):
    """A run that exits 0 but ends on no valid result is an error that
    keeps the line it printed."""
    (tmp_path / "perfbench").mkdir()
    line = json.dumps(dict(RESULT, metrics={"frames_per_s": {"value": math.nan, "unit": "frames/s"}}))
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('record ' + '{\"nproc\": 2}')\n" f"print({line!r})\n"
    )
    run = record.run_once(str(tmp_path), "vaqm-4k", 1, 1.0, 1)
    assert run["exit"] == 0
    assert run["error"].startswith("malformed result line: ") and "NaN" in run["error"]
    assert "metrics" not in run

    (tmp_path / "perfbench" / "run.py").write_text(
        "print('record ' + '{\"nproc\": 2}')\n" f"print({json.dumps(RESULT)!r})\n"
    )
    run = record.run_once(str(tmp_path), "vaqm-4k", 1, 1.0, 1)
    assert "error" not in run
    assert run["metrics"] == {"frames_per_s": 6406.5, "setup_s": 0.27}
    assert run["record"] == {"nproc": 2, "n_reps": 0, "n_setup_runs": 0}
