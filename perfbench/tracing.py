"""In-memory spans for the traced run, and the self-time arithmetic.

A span covers one call from the benchmark into a layer's public
function.  Spans are kept in memory as (name, start, end, parent, op)
records and written out once, when the run ends, so recording a span
costs two clock reads and an append.  The end-to-end run uses
``NULL_TRACER``, whose spans do nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True, slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for an op's root
    op: int


class Tracer:
    """Records nested spans; ``op`` tags every span with the current op id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.op = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)  # reserve the index children point at
        self._open.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)


class _NullTracer:
    _NOTHING = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._NOTHING


NULL_TRACER = _NullTracer()


def self_times(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """Calls and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    totals: dict[str, tuple[int, float]] = {}
    for s, inner in zip(spans, covered):
        calls, seconds = totals.get(s.name, (0, 0.0))
        totals[s.name] = (calls + 1, seconds + (s.end - s.start) - inner)
    return totals


def root_seconds(spans: Sequence[Span]) -> float:
    """Summed duration of the op-level spans."""
    return sum(s.end - s.start for s in spans if s.parent is None)


def write_spans(path, spans: Sequence[Span]) -> None:
    rows = [[s.name, s.start, s.end, s.parent, s.op] for s in spans]
    with open(path, "w") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": rows}, handle)
