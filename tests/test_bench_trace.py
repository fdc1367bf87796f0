"""A traced tiny benchmark run of every workload ends in a readable
result line that carries every per-layer metric.

perfbench's own smoke test lies outside the test paths.  This runs its
helpers (``_bench``, ``_result``) on each workload of BENCHMARK.json
with ``--size tiny --trace 1`` and reads the last line as strictly as
``bench/record.py`` does, so a traced run that exits 0 with a last line
that is not a result, holds a non-finite value or lacks a per-layer
metric fails here.  It also checks the bank's center count and the
projections per distinct PoG.  About 2 s per workload.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Bank centers built by a tiny run: vaqm builds no bank, and the others one
# 3x6 bank.
BANK_CENTERS = {"vaqm-4k": 0, "avaqm-long": 18, "study-sweep": 18}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke():
    return _load("perfbench_smoke_test", ROOT / "perfbench" / "smoke_test.py")


@pytest.fixture(scope="module")
def record():
    return _load("bench_record", ROOT / "bench" / "record.py")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_tiny_run_reports_every_per_layer_metric(smoke, record, workload):
    done = smoke._bench(str(ROOT), workload, trace=1, size="tiny")
    smoke._result(done)
    last = done.stdout.strip().splitlines()[-1]
    result = record.parse_result_line(last)
    assert result is not None, last
    metrics = result["metrics"]
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in metrics]
    assert not missing and "mask.spans_per_distinct_pog" in metrics, missing
    assert metrics["trace.absent_layers"] == 0
    # Each distinct PoG of the trace frames, or each bank center, is projected once.
    assert metrics["session.bank.centers"] == BANK_CENTERS[workload]
    assert metrics["mask.spans_per_distinct_pog"] == 1.0
