"""Spans around calls into the program's public functions.

A span is one timed call: layer name, parent span, start and end in
perf_counter nanoseconds, and the operation it belongs to.  Where a
public call nests another public call, the benchmark re-runs the inner
call by itself right after the outer one returns and records it as a
child; a span's self time is its duration minus its children's, so
the self times of one operation add up to the time of its root spans.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.ops: list[int] = []
        self.parts: list[str] = []
        self.op = -1
        self.part = ""

    def begin_op(self, part: str) -> None:
        """Spans recorded from now on belong to a new operation of ``part``."""
        self.op += 1
        self.part = part

    def call(self, name: str, fn, *args, parent: int = -1, **kwargs):
        """Run ``fn`` as a span of layer ``name``; returns (result, span id)."""
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        end = perf_counter_ns()
        self.names.append(name)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        self.ops.append(self.op)
        self.parts.append(self.part)
        return result, len(self.names) - 1

    def self_seconds(self) -> dict[str, dict[str, float]]:
        """Per part, the summed self time of each layer in seconds."""
        child = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            layer = out.setdefault(self.parts[i], {})
            own = self.ends[i] - self.starts[i] - child[i]
            layer[name] = layer.get(name, 0.0) + own / 1e9
        return out

    def root_seconds(self) -> dict[str, float]:
        """Per part, the summed duration of root spans: the traced
        operations' own wall time."""
        out: dict[str, float] = {}
        for i, p in enumerate(self.parents):
            if p < 0:
                part = self.parts[i]
                out[part] = out.get(part, 0.0) + (self.ends[i] - self.starts[i]) / 1e9
        return out

    def dump(self, path) -> None:
        spans = [[self.ops[i], self.parts[i], self.names[i], self.parents[i],
                  self.starts[i], self.ends[i]] for i in range(len(self.names))]
        with open(path, "w") as f:
            json.dump({"fields": ["op", "part", "layer", "parent", "start_ns", "end_ns"],
                       "spans": spans}, f)
