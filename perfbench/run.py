#!/usr/bin/env python3
"""vq360 benchmark.

Run from the root of a vq360 checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It writes the workload's seeded inputs under .perfbench/, measures the
``vq360`` command on them for S seconds, checks every output, and prints
each metric as ``name value unit (direction is better)``.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
command also runs with span hooks and the metrics are the per-layer ones.
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Set-up runs take this share of --seconds, and at least SETUP_MIN_RUNS runs.
SETUP_SHARE = 0.25
SETUP_MIN_RUNS = 5
SETUP_TIMEOUT_S = 60
# A fresh interpreter importing numpy: the part of a vq360 set-up run that
# vq360 does not control, timed next to each set-up run.
REFERENCE_PROCESS = ("-c", "import numpy")
# What the reference kernel and the reference process take on an unloaded
# 2-vCPU x86 VM.  Timings are scaled to that host speed (see README).
REFERENCE_KERNEL_S = 0.010
REFERENCE_PROCESS_S = 0.15


def _metric_specs() -> dict[str, dict[str, tuple[str, str]]]:
    """Unit and better direction of every metric, per BENCHMARK.json section."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        section: {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="vq360 benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure: set-up runs, then the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny inputs for the smoke test")
    return parser.parse_args(argv)


def _child_env() -> dict:
    """Sources first on the path; one BLAS/OpenMP thread per process, so a
    study's two worker threads cannot oversubscribe the cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


class Tally:
    """Runs of the command attempted, the runs that failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def problems(self) -> list[str]:
        return [f"{run}: {problem}" for run, problems in self.failures.items() for problem in problems]

    def fail(self, run: str, problem: str) -> None:
        self.failures.setdefault(run, []).append(problem)


def _check(tally: Tally, run: str, fn, *args):
    """Call a check; a failure counts against the run whose outputs it read."""
    import checks

    try:
        return fn(*args)
    except (checks.CheckFailed, ValueError, KeyError, IndexError, OSError) as exc:
        tally.fail(run, str(exc))
        return None


def _rep_checker(workload):
    import checks

    if workload.command == "study":
        return lambda out: checks.check_study(out, workload)
    return lambda out: checks.check_evaluate(out, workload.trace_frames)


def _timed_process(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S,
    )
    return time.perf_counter() - start, done


def _measure_setup(workload, work: str, env: dict, seconds: float, tally: Tally) -> list[tuple[float, float]]:
    """(set-up wall, reference wall) pairs: a fresh ``python -m vq360.cli``
    run on one frame, then the reference process, until the set-up share
    of the seconds is spent."""
    import checks
    from workloads import Session

    one_frame = dataclasses.replace(workload, sessions=tuple(Session(s.label, 1) for s in workload.sessions))
    pairs = []
    began = time.perf_counter()
    while len(pairs) < SETUP_MIN_RUNS or time.perf_counter() - began < SETUP_SHARE * seconds:
        run = f"setup{len(pairs)}"
        out = os.path.join(work, run)
        os.makedirs(out)
        argv = [a.replace("{out}", out) for a in workload.argv_one_frame]
        wall, done = _timed_process(["-m", "vq360.cli", *argv], env)
        tally.attempted += 1
        if done.returncode != 0:
            tally.fail(run, f"exited {done.returncode}: {done.stderr.strip()}")
        elif workload.command == "study":
            _check(tally, run, checks.check_study, out, one_frame)
        else:
            _check(tally, run, checks.check_evaluate, out, 1)
        reference, done = _timed_process(list(REFERENCE_PROCESS), env)
        if done.returncode != 0:
            raise RuntimeError(f"reference process exited {done.returncode}: {done.stderr.strip()}")
        pairs.append((wall, reference))
    return pairs


def _run_loop(workload, work: str, seconds: float, trace: bool, env: dict) -> dict:
    spec = {
        "src": SRC,
        "argv": list(workload.argv),
        "seconds": seconds,
        "trace": trace,
        "out": os.path.join(work, "reps"),
        "spans": os.path.join(work, "spans.jsonl"),
    }
    os.makedirs(spec["out"])
    spec_path = os.path.join(work, "loop-spec.json")
    result_path = os.path.join(work, "loop-result.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    # The loop starts no repetition it expects to end after the seconds,
    # so the timeout only leaves room for a first repetition that runs slow.
    subprocess.run(
        [sys.executable, os.path.join(HERE, "loop.py"), spec_path, result_path],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=2 * seconds + 120, check=True,
    )
    with open(result_path) as handle:
        return json.load(handle)


def _spans_per_distinct_pog(pogs: list, workload) -> float | None:
    """Span projections per distinct PoG, over the projections made for
    trace frames; a workload that projects only bank centers (avaqm) is
    counted over those."""
    from vq360 import bank_centers

    centers = {(c.theta_deg, c.phi_deg) for grid in workload.bank_grids for c in bank_centers(*grid)}
    keys = [tuple(p) for p in pogs]
    frame_keys = [k for k in keys if k not in centers] or keys
    return len(frame_keys) / len(set(frame_keys)) if frame_keys else None


def _layer_metrics(loop: dict, workload) -> dict[str, float]:
    """Per-layer metrics of the traced repetition with the median wall
    time, so its self times add up to its own wall time.  An absent
    layer, whose function the program no longer has, gets no metrics."""
    traced = [r["wall_s"] for r in loop["reps"] if r["traced"]]
    untraced = [r["wall_s"] for r in loop["reps"] if not r["traced"]]
    order = sorted(range(len(traced)), key=traced.__getitem__)
    stats = {
        layer: entry
        for layer, entry in loop["layers"][order[(len(order) - 1) // 2]].items()
        if layer not in loop["absent"]
    }
    metrics = {}
    for layer, entry in stats.items():
        for measure in ("calls", "s", "self_s"):
            metrics[f"{layer}.{measure}"] = entry[measure]
    if "session.parse_trace" in stats:
        parse = stats["session.parse_trace"]
        metrics["session.parse_trace.rows_per_s"] = sum(parse["details"]) / parse["s"] if parse["s"] else None
    if "mask.spans" in stats:
        spans = stats["mask.spans"]
        metrics["mask.spans.ms_per_call"] = 1e3 * spans["s"] / spans["calls"] if spans["calls"] else None
        metrics["mask.spans_per_distinct_pog"] = _spans_per_distinct_pog(spans["details"], workload)
    if "session.bank" in stats:
        metrics["session.bank.centers"] = sum(stats["session.bank"]["details"])
    if "pooling.write_frames" in stats:
        metrics["pooling.write_frames.bytes"] = sum(stats["pooling.write_frames"]["details"])
    if "cli.main" in stats:
        metrics["trace.wall_s"] = stats["cli.main"]["s"]
    metrics["trace.self_sum_s"] = sum(entry["self_s"] for entry in stats.values())
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.absent_layers"] = len(loop["absent"])
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vq360", "cli.py")):
        print(f"error: no vq360 sources at {SRC}; run from the root of a vq360 checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import vq360

    import checks

    if not os.path.abspath(vq360.__file__).startswith(SRC + os.sep):
        print(f"error: imported vq360 from {vq360.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = _child_env()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": _commit(),
        "vq360_version": getattr(vq360, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "thread_env_inherited": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_before": os.getloadavg(),
    }

    workload = workloads.build(args.workload, work, args.seed, tiny=args.size == "tiny")
    tally = Tally()
    try:
        traces, record["round_trip_max_deg"] = checks.load_traces(workload)
    except (checks.CheckFailed, ValueError, OSError) as exc:
        print(f"error: vq360 does not read the workload's traces back: {exc}", file=sys.stderr)
        return 1

    metrics: dict[str, float] = {}
    began = time.perf_counter()
    try:
        if not args.trace:
            record["setup_pairs_s"] = _measure_setup(workload, work, env, args.seconds, tally)
            # Each set-up run is scaled by the reference process timed next to it.
            metrics["setup_s"] = statistics.median(
                wall * REFERENCE_PROCESS_S / reference for wall, reference in record["setup_pairs_s"]
            )
        loop = _run_loop(workload, work, max(0.0, args.seconds - (time.perf_counter() - began)), bool(args.trace), env)
    except (subprocess.SubprocessError, OSError, RuntimeError) as exc:
        print(f"error: measurement failed: {exc}", file=sys.stderr)
        return 1

    check_rep = _rep_checker(workload)
    good = []
    for index, rep in enumerate(loop["reps"]):
        tally.attempted += 1
        run = f"rep{index}"
        if rep["exit"] != 0:
            tally.fail(run, f"exited {rep['exit']}")
            continue
        checked = _check(tally, run, check_rep, rep["out"])
        if run not in tally.failures:
            good.append((run, rep, checked))
    if not good:
        print("error: no repetition produced checked outputs: " + "; ".join(tally.problems), file=sys.stderr)
        return 1
    last_run, last_rep, last = good[-1]
    for rep in loop["reps"]:
        if rep is not last_rep:
            shutil.rmtree(rep["out"])

    if workload.command == "study":
        table, zero_q = last
        series = _check(tally, last_run, checks.check_segment_table, table, workload, traces)
        q_first = series[workload.sessions[0].label] if series else None
        over_one = sum(int((q > 1.0).sum()) for q in series.values()) if series else None
    else:
        q_first, zero_q, over_one = last, int((last == 0.0).sum()), int((last > 1.0).sum())

    if args.trace:
        metrics.update(_layer_metrics(loop, workload))
        metrics.update(checks.workload_properties(workload, traces))
        metrics["pooling.zero_q_frames"] = zero_q
        metrics["pooling.q_over_one_frames"] = over_one
        metrics["run.error_rate"] = tally.failed / tally.attempted
        section = "per_layer"
    else:
        # Other tenants of a shared host slow the program and the reference
        # kernel run between its repetitions alike, so their ratio holds
        # while the host's speed drifts.
        frames_per_s = workload.frames_per_rep * len(good) / sum(rep["wall_s"] for _, rep, _ in good)
        record["frames_per_s_unscaled"] = frames_per_s
        record["reference_kernel_mean_s"] = statistics.fmean(loop["reference_s"])
        metrics["frames_per_s"] = frames_per_s * record["reference_kernel_mean_s"] / REFERENCE_KERNEL_S
        metrics["peak_rss_mb"] = loop["maxrss_kb"] / 1024.0
        if q_first is not None:
            metrics["oracle_max_abs_dq"] = _check(tally, last_run, checks.oracle_max_abs_dq, workload, traces[0], q_first)
        metrics["success_rate"] = 1.0 - tally.failed / tally.attempted
        section = "end_to_end"
    wanted = _metric_specs()[section]

    record["reps"] = [(rep["wall_s"], rep["traced"], rep["exit"]) for rep in loop["reps"]]
    record["loadavg_after"] = os.getloadavg()
    record["problems"] = tally.problems
    with open(os.path.join(work, "record.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print("record " + json.dumps(record))
    for problem in tally.problems:
        print(f"check failed: {problem}")
    for name, (unit, better) in wanted.items():
        if metrics.get(name) is not None:
            print(f"{name} {metrics[name]!r} {unit} ({better} is better)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in wanted.items()
            if metrics.get(name) is not None
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
