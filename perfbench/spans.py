"""In-memory spans and counters recorded around the benchmark's calls.

A span has a name, a start, an end, a parent span and an item id.  Calls that
happen too often for one span each are folded into a timed counter, whose
time counts as child time of the enclosing span.  Nothing is written until
the pass ends, when `layer_totals` sums the spans per name.
"""

from __future__ import annotations

import time
from contextlib import nullcontext


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "attrs", "child_s")

    def __init__(self, name: str, start: float, parent: int | None, item):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.attrs: dict = {}
        self.child_s = 0.0


class _Open:
    """Context manager that closes one span of a Tracer."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> dict:
        return self.span.attrs

    def __exit__(self, *exc) -> None:
        span = self.span
        span.end = time.perf_counter()
        self.tracer._stack.pop()
        if span.parent is not None:
            self.tracer.spans[span.parent].child_s += span.end - span.start


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.timers: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str, item=None) -> _Open:
        """`with tracer.span(name, item) as attrs:`; attrs annotate the span."""
        parent = self._stack[-1] if self._stack else None
        if item is None and parent is not None:
            item = self.spans[parent].item
        self.spans.append(Span(name, time.perf_counter(), parent, item))
        self._stack.append(len(self.spans) - 1)
        return _Open(self, self.spans[-1])

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn):
        """`fn` wrapped to add its time to the timer `name`."""
        timers, spans, stack = self.timers, self.spans, self._stack
        timers.setdefault(name, 0.0)
        clock = time.perf_counter

        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                timers[name] += dt
                if stack:
                    spans[stack[-1]].child_s += dt
        return wrapper

    def layer_totals(self) -> dict[str, float]:
        """Total time per span name and timed counter, and each span's self
        time summed under "<name>.self"."""
        out: dict[str, float] = dict(self.timers)
        for sp in self.spans:
            dur = sp.end - sp.start
            out[sp.name] = out.get(sp.name, 0.0) + dur
            out[sp.name + ".self"] = out.get(sp.name + ".self", 0.0) + dur - sp.child_s
        return out


class NullTracer:
    """The tracer used with tracing off: every call is a no-op."""

    enabled = False
    _open = nullcontext({})

    def span(self, name: str, item=None):
        return self._open

    def add(self, name: str, n: float = 1) -> None:
        pass

    def timed(self, name: str, fn):
        return fn
