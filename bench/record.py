#!/usr/bin/env python3
"""Record benchmark results of one or two vq360 checkouts as BENCH_<label>.json.

Run from anywhere, with the checkouts' roots as arguments:

    python3 bench/record.py --checkout . --label after \\
        --parent-checkout ../before --parent-label before \\
        --workload vaqm-4k --seeds 1-10 --seconds 30

For every workload and seed it runs ``perfbench/run.py`` of each checkout
in a fresh process, from that checkout's root.  Given a parent, each seed
is one pair of runs, and the side that runs first alternates from pair to
pair, so a drift in host speed falls on both sides alike.  From every run
it keeps the ``record {...}`` line and the final JSON result line.  The
result line is read strictly (parse_result_line): a run whose last line
holds NaN or Infinity, or lacks correct, attempted, failed or metrics,
fails with the error "malformed result line" and that line's text.

``BENCH_<label>.json`` (in ``--out``, default the current directory)
holds the checkout's commit, whether its tree differed from that commit,
a sha256 over its ``src/`` files, nproc, the Python and numpy versions the
runs reported, and per workload and section (``end_to_end`` for
``--trace 0``, ``per_layer`` for ``--trace 1``) every run and each
metric's median and quartiles.  A run whose reference kernel mean is
over 1.5 times the median of its side is listed in
``reference_outliers`` with a warning, and each metric also gets its
``median_without_outliers``; no run is dropped.  Each workload section
also carries the checkout it was measured on.  An existing file keeps its
other workloads and sections, but only if it was written from the same
``src/`` tree: a file whose ``src_sha256`` differs is left alone and the
run fails.
With a parent, the change's file also records, for every end-to-end
metric, how many pairs the change won, the median gap and the parent's
interquartile range.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

RUN_TIMEOUT_S = 1800
RECORD_PREFIX = "record "
# perfbench scales frames_per_s by the run's reference kernel mean, so a
# host slowdown during the reference samples alone inflates that metric.
REFERENCE_OUTLIER_RATIO = 1.5


def _parse_seeds(text: str) -> list[int]:
    """Seeds as 'A-B' (inclusive) or 'A,B,C'."""
    try:
        if "-" in text:
            first, last = (int(part) for part in text.split("-"))
            seeds = list(range(first, last + 1))
        else:
            seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seeds as A-B or A,B,C, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="record vq360 benchmark results as BENCH_<label>.json")
    parser.add_argument("--checkout", required=True, help="root of the vq360 checkout to measure")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--parent-checkout", help="root of the parent checkout, measured in alternation")
    parser.add_argument("--parent-label", help="label of the parent's file (required with --parent-checkout)")
    parser.add_argument("--workload", action="append", required=True, help="workload name; repeat for more")
    parser.add_argument("--seeds", type=_parse_seeds, required=True, help="seeds as A-B or A,B,C")
    parser.add_argument("--seconds", type=float, default=30.0, help="--seconds of every perfbench run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="--trace of every perfbench run")
    parser.add_argument("--out", default=".", help="directory for the BENCH_<label>.json files")
    args = parser.parse_args(argv)
    if bool(args.parent_checkout) != bool(args.parent_label):
        parser.error("--parent-checkout and --parent-label go together")
    return args


def _git(root: str, *argv: str) -> str | None:
    try:
        done = subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256(root: str) -> str:
    """sha256 over the relative paths and bytes of every file under src/."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _checkout_info(root: str) -> dict:
    status = _git(root, "status", "--porcelain", "--", "src")
    return {
        "commit": _git(root, "rev-parse", "HEAD"),
        "src_differs_from_commit": None if status is None else bool(status),
        "src_sha256": _src_sha256(root),
    }


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its record, its result line and its wall time."""
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    began = time.perf_counter()
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - began
    lines = done.stdout.splitlines()
    record = next((json.loads(l[len(RECORD_PREFIX):]) for l in lines if l.startswith(RECORD_PREFIX)), None)
    result = parse_result_line(lines[-1]) if lines else None
    run = {"seed": seed, "exit": done.returncode, "wall_s": wall}
    if done.returncode != 0 or record is None:
        run["error"] = done.stderr.strip()[-2000:] or "no record line"
    elif result is None:
        # The line itself is kept, so that what the run printed can be read.
        run["error"] = f"malformed result line: {lines[-1][-2000:]!r}"
    else:
        run.update(result, record=_brief(record))
    return run


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def parse_result_line(line: str) -> dict | None:
    """correct, attempted, failed and each metric's value from a perfbench
    result line, or None unless the line is a JSON object holding those
    keys, each metric an object with a value, and no NaN or Infinity."""
    try:
        result = json.loads(line, parse_constant=_reject_constant)
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        return {key: result[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def _brief(record: dict) -> dict:
    """The run record without its per-repetition timings, which the
    metrics already summarize; their counts stay."""
    brief = {k: v for k, v in record.items() if k not in ("reps", "setup_pairs_s")}
    brief["n_reps"] = len(record.get("reps", ()))
    brief["n_setup_runs"] = len(record.get("setup_pairs_s", ()))
    return brief


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _outlier_runs(runs: list[dict]) -> list[int]:
    """Indices of the runs whose reference kernel mean is over
    REFERENCE_OUTLIER_RATIO times the median of the runs that report one."""
    means = {
        i: run["record"]["reference_kernel_mean_s"]
        for i, run in enumerate(runs)
        if run.get("record", {}).get("reference_kernel_mean_s") is not None
    }
    if not means:
        return []
    limit = REFERENCE_OUTLIER_RATIO * statistics.median(means.values())
    return [i for i, mean in means.items() if mean > limit]


def reference_outliers(runs: list[dict]) -> list[dict]:
    """Seed and reference kernel mean of every outlier run (_outlier_runs)."""
    return [
        {"seed": runs[i]["seed"], "reference_kernel_mean_s": runs[i]["record"]["reference_kernel_mean_s"]}
        for i in _outlier_runs(runs)
    ]


def summarize(runs: list[dict], specs: dict[str, dict]) -> dict:
    """Median and quartiles of every metric over the runs that reported it,
    and the median over those runs that are not reference outliers."""
    outliers = set(_outlier_runs(runs))
    summary = {}
    names = sorted({name for run in runs for name in run.get("metrics", {})})
    for name in names:
        reported = [i for i, run in enumerate(runs) if run.get("metrics", {}).get(name) is not None]
        values = [runs[i]["metrics"][name] for i in reported]
        kept = [runs[i]["metrics"][name] for i in reported if i not in outliers]
        q1, median, q3 = _quartiles(values)
        summary[name] = {
            "median": median,
            "median_without_outliers": statistics.median(kept) if kept else None,
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "unit": specs[name]["unit"],
        }
    return summary


def compare(change: list[dict], parent: list[dict], specs: dict[str, dict]) -> dict:
    """Per end-to-end metric: pairs the change won (ties count for
    neither), the median gap and the parent's interquartile range."""
    out = {}
    for name, spec in specs.items():
        if spec["section"] != "end_to_end":
            continue
        direction = spec["better"]
        pairs = [
            (c["metrics"][name], p["metrics"][name])
            for c, p in zip(change, parent)
            if c.get("metrics", {}).get(name) is not None and p.get("metrics", {}).get(name) is not None
        ]
        if not pairs:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(1 for c, p in pairs if sign * (c - p) > 0.0)
        change_median = statistics.median(c for c, _ in pairs)
        q1, parent_median, q3 = _quartiles([p for _, p in pairs])
        out[name] = {
            "pairs": len(pairs),
            "change_wins": wins,
            "change_median": change_median,
            "parent_median": parent_median,
            "median_gap": change_median - parent_median,
            "parent_iqr": q3 - q1,
            "better": direction,
        }
    return out


def _machine(runs: list[dict]) -> dict:
    records = [run["record"] for run in runs if "record" in run]
    first = records[0] if records else {}
    return {
        "nproc": first.get("nproc", os.cpu_count()),
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "machine": platform.machine(),
    }


def _existing(path: str, info: dict) -> dict:
    """The file's current content, if any; SystemExit if it was written
    from a different src/ tree, so that no file mixes two trees' runs."""
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        data = json.load(handle)
    found = data.get("checkout", {}).get("src_sha256")
    if found != info["checkout"]["src_sha256"]:
        raise SystemExit(f"error: {path} holds runs of src/ tree {found}, not {info['checkout']['src_sha256']}")
    return data


def _write(path: str, info: dict, workload: str, section: str, entry: dict) -> None:
    data = _existing(path, info)
    data.update(info)
    entry = dict(entry, checkout=info["checkout"])
    data.setdefault("workloads", {}).setdefault(workload, {})[section] = entry
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def _metric_specs(root: str) -> dict[str, dict]:
    """Unit, better direction and section of every metric in BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        m["name"]: {"unit": m["unit"], "better": m["better"], "section": section}
        for section in ("end_to_end", "per_layer")
        for m in spec[section]
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    sides = [(args.label, args.checkout)]
    if args.parent_checkout:
        sides.append((args.parent_label, args.parent_checkout))
    for _, root in sides:
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            print(f"error: no perfbench/run.py under {root}", file=sys.stderr)
            return 2
    os.makedirs(args.out, exist_ok=True)
    section = "per_layer" if args.trace else "end_to_end"
    infos = {label: _checkout_info(root) for label, root in sides}
    for label, _ in sides:
        # Checked before the first run, so a mismatch costs no run time.
        _existing(os.path.join(args.out, f"BENCH_{label}.json"), {"checkout": infos[label]})
    specs = _metric_specs(args.checkout)
    status = 0
    for workload in args.workload:
        runs: dict[str, list[dict]] = {label: [] for label, _ in sides}
        for pair, seed in enumerate(args.seeds):
            order = sides if pair % 2 == 0 else sides[::-1]
            for label, root in order:
                run = run_once(root, workload, seed, args.seconds, args.trace)
                runs[label].append(run)
                shown = {k: run["metrics"][k] for k in ("frames_per_s", "setup_s") if k in run.get("metrics", {})}
                print(f"{workload} seed {seed} {label}: exit {run['exit']} {shown or run.get('error', '')}", flush=True)
                if "error" in run:
                    status = 1
        for label, _ in sides:
            entry = {
                "seconds": args.seconds,
                "trace": args.trace,
                "seeds": args.seeds,
                "runs": runs[label],
                "metrics": summarize(runs[label], specs),
                "reference_outliers": reference_outliers(runs[label]),
            }
            for outlier in entry["reference_outliers"]:
                print(
                    f"warning: {workload} seed {outlier['seed']} {label}: reference kernel mean "
                    f"{outlier['reference_kernel_mean_s']:.4g} s is over {REFERENCE_OUTLIER_RATIO:g}x the "
                    "median of its side; its scaled metrics are suspect (the run is kept)",
                    file=sys.stderr,
                )
            if label == args.label and args.parent_checkout and not args.trace:
                entry["versus"] = {
                    "label": args.parent_label,
                    "metrics": compare(runs[label], runs[args.parent_label], specs),
                }
                for name, c in entry["versus"]["metrics"].items():
                    print(
                        f"{workload} {name}: {args.label} {c['change_median']:.6g} vs {args.parent_label} "
                        f"{c['parent_median']:.6g}, wins {c['change_wins']}/{c['pairs']}, "
                        f"gap {c['median_gap']:.4g}, parent IQR {c['parent_iqr']:.4g}"
                    )
            info = {"label": label, "checkout": infos[label], "machine": _machine(runs[label])}
            _write(os.path.join(args.out, f"BENCH_{label}.json"), info, workload, section, entry)
    return status


if __name__ == "__main__":
    sys.exit(main())
