"""Tiny-size smoke test of the benchmark.

    python3 perfbench/smoke_test.py
    python3 -m pytest perfbench/smoke_test.py

Runs every workload on tiny inputs in both modes and checks that the
result line is well formed, that every output passed its checks, and
that every metric BENCHMARK.json names is printed with the unit and the
direction given there.  It also checks that counters repeat exactly for
a repeated seed, and that the benchmark refuses to run where the
program's sources are missing.  It takes under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

COUNTERS = (
    "mask.spans.calls", "mask.spans_per_distinct_pog", "session.pool.calls", "session.bank.centers",
    "trace.frames", "trace.pole_share", "trace.seam_share", "avaqm.snap_deg.max", "pooling.zero_q_frames",
)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _bench(cwd: str, workload: str, trace: int, seed: int = 7, size: str = "tiny") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    return result


def test_tiny_runs_report_every_metric():
    spec = _spec()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = _bench(ROOT, workload, trace)
            metrics = _result(done)["metrics"]
            assert set(metrics) == {m["name"] for m in spec[section]}, workload
            lines = set(done.stdout.splitlines())
            for declared in spec[section]:
                got = metrics[declared["name"]]
                assert got["unit"] == declared["unit"], declared["name"]
                assert isinstance(got["value"], (int, float)), declared["name"]
                printed = f"{declared['name']} {got['value']!r} {declared['unit']} ({declared['better']} is better)"
                assert printed in lines, printed
            if trace:
                wall, self_sum = metrics["trace.wall_s"]["value"], metrics["trace.self_sum_s"]["value"]
                assert abs(wall - self_sum) < 1e-6, workload
                assert metrics["trace.absent_layers"]["value"] == 0, workload


def test_counters_repeat_exactly():
    first, second = (_result(_bench(ROOT, "study-sweep", 1))["metrics"] for _ in range(2))
    for name in COUNTERS:
        assert first[name] == second[name], name


def test_missing_hook_target_is_absent():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import vq360.cli  # noqa: F401

    import tracing

    tracer = tracing.Tracer()
    layers = tracing.LAYERS
    tracing.LAYERS = layers + (("session.renamed", "vq360.session", "_no_such_function"),)
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        tracing.LAYERS = layers
    assert tracer.absent == ["session.renamed"]

    # An absent layer reports nothing, not zero calls and zero seconds.
    stats = tracing.layer_stats([])
    loop = {
        "reps": [{"wall_s": 1.0, "traced": False}, {"wall_s": 1.0, "traced": True}],
        "layers": [stats],
        "absent": ["mask.spans", "session.parse_trace"],
    }
    metrics = run._layer_metrics(loop, workload=None)
    assert not [name for name in metrics if name.startswith(("mask.spans", "session.parse_trace"))], metrics
    assert metrics["session.bank.calls"] == 0 and metrics["trace.absent_layers"] == 2


def test_refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench", "smoke-bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = _bench(bare, "vaqm-4k", 0, size="full")
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip()


if __name__ == "__main__":
    for test in (
        test_tiny_runs_report_every_metric,
        test_counters_repeat_exactly,
        test_missing_hook_target_is_absent,
        test_refuses_without_sources,
    ):
        test()
        print(f"ok {test.__name__}")
