"""Span recording for the traced benchmark run.

Spans are taken around calls into the product by replacing public functions
at the sites the product (or the benchmark) calls them through, so the
product code itself is not modified. Each span holds a name, start and end
times, the id of the span that was open when it started, and a trace id
that groups the spans of one query or one training step.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: str


class Tracer:
    """Keeps spans in memory; `patched` installs wrappers for one phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self._next_id = 0
        self._open: list[int] = []
        self._trace = "-"
        self._roots: dict[str, int] = {}

    def wrap(self, fn, name: str, root: bool = False):
        """`fn` recording one span per call; a root span starts a new trace id."""

        def traced(*args, **kwargs):
            if root:
                count = self._roots[name] = self._roots.get(name, 0) + 1
                self._trace = f"{name}#{count}"
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            trace = self._trace
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans.append(Span(span_id, name, start, end, parent, trace))

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, sites):
        """Wrap every (owner, attribute, span name, root) site, restore on exit."""
        saved = []
        try:
            for owner, attr, name, root in sites:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, root))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = (span.end - span.start) - covered
    return out


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

    @property
    def mean_self_s(self) -> float:
        return self.self_s / self.calls if self.calls else 0.0


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: call count, total duration and total self time."""
    own = self_times(spans)
    stats: dict[str, SpanStats] = {}
    for span in spans:
        entry = stats.setdefault(span.name, SpanStats())
        entry.calls += 1
        entry.total_s += span.end - span.start
        entry.self_s += own[span.id]
    return stats
