"""In-memory spans recorded around the program's public functions.

``Tracer.wrap`` returns a function that records one span per call: its
name, start, end (``time.perf_counter`` seconds) and the index of the
enclosing span, taken from a per-tracer stack. ``install`` swaps the
traced wrappers into the ``irnnlab.harness`` namespace, so the spans come
from the real ``harness.train`` / ``harness.evaluate`` / ``grid_search``
code paths; ``uninstall`` restores the originals. Spans stay in memory
until the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Names looked up in the harness module's globals at call time, and the
# layer each one belongs to.
HARNESS_NAMES = {
    "init_params": "network.init",
    "forward": "network.forward",
    "backward": "network.backward",
    "clip_gradients": "optim.clip",
    "sgd_step": "optim.sgd",
    "evaluate": "harness.evaluate",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # (name, start, end, parent)
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped_original__ = fn
        return traced


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append((self.name, time.perf_counter(), 0.0, parent))
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr._stack.pop()
        name, start, _, parent = tr.spans[self.index]
        tr.spans[self.index] = (name, start, time.perf_counter(), parent)
        return False


def install(tracer: Tracer, harness_module, datasets) -> None:
    """Wrap the harness's layer calls and each dataset's ``batch``."""
    for attr, name in HARNESS_NAMES.items():
        setattr(harness_module, attr, tracer.wrap(name, getattr(harness_module, attr)))
    for ds in datasets:
        ds.batch = tracer.wrap("tasks.batch", ds.batch)


def uninstall(harness_module, datasets) -> None:
    for attr in HARNESS_NAMES:
        fn = getattr(harness_module, attr)
        setattr(harness_module, attr, getattr(fn, "__wrapped_original__", fn))
    for ds in datasets:
        vars(ds).pop("batch", None)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time (seconds).

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because each thread of calls is a stack.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out


def top_level_time(spans, root_name: str) -> float:
    """Summed duration of the direct children of every span called ``root_name``."""
    roots = {i for i, s in enumerate(spans) if s[0] == root_name}
    return sum(end - start for _, start, end, parent in spans if parent in roots)
