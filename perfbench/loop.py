"""Timed repetitions of one workload command, in a fresh process.

Usage: python3 loop.py SPEC.json RESULT.json

SPEC holds the sources directory, the command's argument list, the
seconds to measure, whether to trace, and the output directory.  The
process imports vq360 once, then calls ``vq360.cli.main(argv)`` until
the seconds are spent, each repetition writing to its own directory.
Untraced runs interleave a fixed reference kernel with the repetitions,
so the host's speed is measured over the same stretch of time as the
program.  Traced runs alternate untraced and traced repetitions, so the
tracing overhead is measured in the same process.  RESULT gets the wall
time and exit code of each repetition, the reference kernel's times,
the process's peak RSS and, when traced, per-layer statistics for each
traced repetition.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

# Reference kernel time per second of repetition time.
REFERENCE_SHARE = 0.2
_REFERENCE_X = np.linspace(0.0, 3.0, 2048)


def reference_kernel() -> float:
    """Fixed work that never touches vq360: small numpy array operations
    and a Python loop, the two kinds of work a vq360 run is made of.
    About 10 ms on a 2-vCPU x86 VM."""
    acc = 0.0
    for i in range(120):
        y = np.sin(_REFERENCE_X + i) * np.cos(_REFERENCE_X)
        acc += float(np.cumsum(y > 0.0)[-1])
    for i in range(45000):
        acc += i % 7
    return acc


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    from vq360 import cli

    import tracing

    tracer = tracing.Tracer() if spec["trace"] else None
    # A traced run measures in pairs: one untraced, then one traced repetition.
    batch = 2 if tracer is not None else 1
    reps = []
    layers = []
    reference = []
    began = time.perf_counter()
    deadline = began + spec["seconds"]
    while True:
        batch_start = time.perf_counter()
        for _ in range(batch):
            index = len(reps)
            traced = tracer is not None and index % 2 == 1
            out = os.path.join(spec["out"], f"rep{index}")
            os.makedirs(out)
            argv = [arg.replace("{out}", out) for arg in spec["argv"]]
            if traced:
                tracer.run_id = index
                tracer.install()
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                layers.append(tracing.layer_stats([s for s in tracer.spans if s[tracing.RUN] == index]))
            reps.append({"out": out, "wall_s": wall, "exit": code, "traced": traced})
        if tracer is None:
            gc.collect()
            rep_total = sum(rep["wall_s"] for rep in reps)
            while sum(reference) < REFERENCE_SHARE * rep_total:
                start = time.perf_counter()
                reference_kernel()
                reference.append(time.perf_counter() - start)
        # Start another batch only if it should end before the deadline.
        now = time.perf_counter()
        if now + (now - batch_start) > deadline:
            break
    result = {
        "reps": reps,
        "reference_s": reference,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
        "absent": tracer.absent if tracer else [],
    }
    if tracer is not None:
        tracer.write_jsonl(spec["spans"])
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
