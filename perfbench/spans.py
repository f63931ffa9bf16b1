"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, run id), timed with
``time.perf_counter``.  Spans stay in memory until :meth:`Tracer.write`
dumps them as JSON lines at the end of the run.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_time(self, span: Span) -> float:
        """Duration minus the time covered by direct children."""
        children = sum(s.seconds for s in self.spans if s.parent == span.id)
        return span.seconds - children

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                row = asdict(span)
                row["self_s"] = self.self_time(span)
                fh.write(json.dumps(row) + "\n")
