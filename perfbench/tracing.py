"""Spans and counters recorded from the benchmark's side of each layer call.

The library carries no tracing of its own.  A traced run swaps the library
functions the workloads call for wrappers made by ``Tracer.wrap``; an
untraced run uses ``NullTracer``, whose ``wrap`` hands back the function
itself, so the op code is the same in both runs.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written
out once, when the run ends.  Spans are nested only through the call stack
of the single benchmark thread, so a span's children never overlap and its
self time is its duration minus theirs.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Tracing off: no spans, no counters."""

    enabled = False
    op = None

    def wrap(self, name, fn):
        return fn

    def add(self, name, n=1):
        pass

    def high(self, name, value):
        pass


class Tracer:
    """Tracing on: one span per wrapped call, tagged with the current op."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def add(self, name, n=1):
        self.counts[name] += n

    def high(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def busy(self) -> dict[str, float]:
        """Summed wall time per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer, the layer being the span name up to its first dot."""
        out: dict[str, float] = defaultdict(float)
        for name, t in self.self_times().items():
            out[name.split(".", 1)[0]] += t
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
