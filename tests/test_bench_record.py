"""The benchmark recorder's summaries: medians and quartiles, parent
against change, and the flag on runs whose reference kernel ran slow.

The frames/s and reference kernel means are those of the study-sweep
parent runs at seeds 8211-8215 in BENCH_pr7.json, where the run at seed
8212 read 31175 frames/s because its reference kernel mean was 0.0226 s
against 0.0132-0.0141 s; the set-up times are made up.
"""

import importlib.util
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
