"""In-memory spans around the benchmark's calls into each library layer.

A span has a name, start and end (``perf_counter`` seconds), the index of
the span that was open when it began, and the data vector it served
(``None`` during set-up).  Spans are recorded only by the single caller
thread; the library's own worker threads are inside the spans.
"""

from __future__ import annotations

import json
import statistics
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    vector: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, vector: int | None = None):
        parent = self._open[-1] if self._open else None
        if vector is None and parent is not None:
            vector = self.spans[parent].vector
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), float("nan"), parent, vector))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Traced replacement for ``workloads.plain``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: Counter = Counter()
        for s, c in zip(self.spans, covered):
            out[s.name] += s.duration - c
        return dict(out)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = dict(
            extra,
            self_s=self.self_times(),
            spans=[[s.name, s.start, s.end, s.parent, s.vector] for s in self.spans],
        )
        path.write_text(json.dumps(record))


def median(values: list[float]) -> float:
    """Median, or 0.0 for a layer the workload never calls."""
    return statistics.median(values) if values else 0.0


class AllocProbe:
    """Layer call that records the tracemalloc peak of one named layer."""

    def __init__(self, name: str):
        self.name = name
        self.peak_bytes = 0

    def call(self, name, fn, *args, **kwargs):
        if name != self.name:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
