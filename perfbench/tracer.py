"""In-memory span recorder for the traced replica runs.

A span is (name, start, end, parent, run id).  Spans live in typed arrays
while the benchmark runs and are summarised (or saved) when it ends, so the
cost per span is two clock reads and a few array appends.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    """Records nested spans; ``begin`` returns the handle ``end_span`` closes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        stack.append(idx)
        self.start.append(_now())
        return idx

    def end_span(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def save(self, path) -> None:
        t = SpanTable(self)
        np.savez_compressed(
            path, names=np.array(self.names), name=t.name, start=t.start, end=t.end, parent=t.parent, run=t.run
        )


class SpanTable:
    """Numpy view of a tracer's spans with per-name summaries."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int64)
        self.start = np.frombuffer(tracer.start, dtype=np.int64)
        self.end = np.frombuffer(tracer.end, dtype=np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64)
        self.run = np.frombuffer(tracer.run, dtype=np.int64)
        self.dur_ns = self.end - self.start
        child = np.zeros(len(self.dur_ns), dtype=np.int64)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur_ns[has_parent])
        self.child_ns = child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def durations_us(self, name: str) -> np.ndarray:
        return self.dur_ns[self.mask(name)] / 1e3

    def mean_us(self, name: str) -> float:
        d = self.durations_us(name)
        return float(d.mean()) if len(d) else 0.0

    def total_ms(self, name: str) -> float:
        return float(self.durations_us(name).sum() / 1e3)

    def self_mean_us(self, name: str) -> float:
        """Mean of the span's duration minus the time its child spans cover."""
        m = self.mask(name)
        if not m.any():
            return 0.0
        return float(((self.dur_ns[m] - self.child_ns[m]) / 1e3).mean())

    def percentile_us(self, name: str, q: float) -> float:
        d = self.durations_us(name)
        return float(np.percentile(d, q)) if len(d) else 0.0

    def covered_fraction(self, parent_name: str, child_names) -> float:
        """Share of ``parent_name`` time spent in spans named ``child_names``.

        The named spans must be disjoint and lie inside ``parent_name`` spans.
        """
        total = self.dur_ns[self.mask(parent_name)].sum()
        inside = sum(self.dur_ns[self.mask(n)].sum() for n in child_names)
        return float(inside / total) if total else 0.0
