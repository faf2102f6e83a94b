"""In-memory spans around the benchmark's calls into entcert.

A span records a name, its start and end (``perf_counter`` seconds), the
op it belongs to and its parent span.  Spans stay in memory until the run
ends; ``Tracer.layer_metrics`` then reduces them to per-layer self time
and call counts.  ``NullTracer`` has the same surface and records nothing,
so the untraced run executes the same op code.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    enabled = False

    def begin_op(self) -> None:
        pass

    def span(self, name: str, tag: str | None = None):
        return nullcontext()

    def add(self, name: str, value: float) -> None:
        pass


class Tracer:
    """Spans and counters of one traced phase."""

    enabled = True

    def __init__(self) -> None:
        # (name, tag, op id, parent index or -1, start, end)
        self.spans: list[tuple[str, str | None, int, int, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._op = -1
        self._stack: list[int] = []

    def begin_op(self) -> None:
        self._op += 1

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, tag, self._op, parent, time.perf_counter(), 0.0))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name, tag, op, parent, t0, _ = self.spans[idx]
            self.spans[idx] = (name, tag, op, parent, t0, time.perf_counter())

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, _, _, _, start, end in self.spans]
        for _, _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name, and per ``name.tag``."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, tag, *_), own in zip(self.spans, self.self_times()):
            for key in (name, f"{name}.{tag}") if tag else (name,):
                busy[key] += own
                calls[key] += 1
        return busy, calls
