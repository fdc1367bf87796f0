"""Spans around the calls between vq360's modules, recorded from outside.

For a traced run the tracer replaces each target function, in every
vq360 module that holds a reference to it, with a wrapper that records a
span (layer, start, end, parent, thread, run id).  Spans stay in memory
until the run ends.  A target that no longer exists is reported as an
absent layer and is not an error, so the benchmark keeps working when
the program renames or deletes an internal function.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import sys
import threading
import time

# (layer, module, function).  The layer name says what the call does;
# the function is where that work sits in the program today.
LAYERS = (
    ("cli.main", "vq360.cli", "main"),
    ("session.parse_trace", "vq360.session", "parse_trace"),
    ("session.synthetic_trace", "vq360.session", "synthetic_trace"),
    ("session.schedule", "vq360.session", "_variant_per_frame"),
    ("mask.spans", "vq360.session", "_project_spans"),
    ("session.tile_sums", "vq360.session", "_tile_weight_sums"),
    ("session.bank", "vq360.session", "_bank_tile_sums"),
    ("session.pool", "vq360.session", "_pooled"),
    ("session.evaluate", "vq360.session", "evaluate_session"),
    ("session.error_study", "vq360.session", "approximation_error_study"),
    ("pooling.timeline", "vq360.pooling", "make_timeline"),
    ("pooling.write_frames", "vq360.pooling", "write_frame_csv"),
)


def _pog(args, result):
    return [float(args[0].theta_deg), float(args[0].phi_deg)]


def _rows(args, result):
    return int(result.n_frames)


def _centers(args, result):
    return len(result[0])


def _file_bytes(args, result):
    return os.path.getsize(args[1])


# What a span records about its call, beyond timing.
_DETAILS = {
    "mask.spans": _pog,
    "session.parse_trace": _rows,
    "session.bank": _centers,
    "pooling.write_frames": _file_bytes,
}

# Span record fields.
ID, LAYER, START, END, PARENT, THREAD, RUN, DETAIL = range(8)


class Tracer:
    """Installs span hooks for one traced repetition at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.run_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        detail = _DETAILS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread's first span belongs to whatever the main
            # thread is running, which is what submitted the work.
            caller = stack or tracer._main_stack
            parent = caller[-1][ID] if caller else None
            span = [next(tracer._ids), layer, time.perf_counter_ns(), 0, parent, threading.get_ident(), tracer.run_id, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if detail is not None:
                try:
                    span[DETAIL] = detail(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass
            return result

        return traced

    def install(self) -> None:
        self._main_stack = self._stack()
        self.absent = []
        modules = [m for name, m in list(sys.modules.items()) if name == "vq360" or name.startswith("vq360.")]
        for layer, module_name, attr in LAYERS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched = []

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "layer", "start_ns", "end_ns", "parent", "thread", "run", "detail")
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s[ID]):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[list]) -> dict[int, float]:
    """Wall-clock self time of each span, in ns.

    Self time is the part of a span's interval not covered by its child
    spans.  When threads run spans at the same moment, each instant is
    split evenly between the innermost spans of the threads that are
    working; a span waiting for children in other threads is not working.
    The self times of a run therefore add up to the root span's duration.
    """
    thread_of = {s[ID]: s[THREAD] for s in spans}
    events = []
    for s in spans:
        events.append((s[START], 1, s[ID], s))
        events.append((s[END], 0, -s[ID], s))
    events.sort(key=lambda e: e[:3])
    stacks: dict[int, list[int]] = collections.defaultdict(list)
    waiting: collections.Counter = collections.Counter()
    result = {s[ID]: 0.0 for s in spans}
    previous = None
    for when, starts, _, span in events:
        if previous is not None and when > previous:
            innermost = [stack[-1] for stack in stacks.values() if stack]
            working = [sid for sid in innermost if not waiting[sid]] or innermost[:1]
            for sid in working:
                result[sid] += (when - previous) / len(working)
        previous = when
        parent = span[PARENT]
        crosses = parent is not None and thread_of.get(parent) != span[THREAD]
        if starts:
            stacks[span[THREAD]].append(span[ID])
            if crosses:
                waiting[parent] += 1
        else:
            stacks[span[THREAD]].remove(span[ID])
            if crosses:
                waiting[parent] -= 1
    return result


def layer_stats(spans: list[list]) -> dict[str, dict]:
    """Per-layer calls, inclusive seconds, self seconds and call details of one run."""
    own = self_times(spans)
    stats = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0, "details": []} for layer, _, _ in LAYERS}
    for s in spans:
        entry = stats[s[LAYER]]
        entry["calls"] += 1
        entry["s"] += (s[END] - s[START]) / 1e9
        entry["self_s"] += own[s[ID]] / 1e9
        if s[DETAIL] is not None:
            entry["details"].append(s[DETAIL])
    return stats
