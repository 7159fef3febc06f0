"""In-memory spans for the traced benchmark run.

A span is (id, name, start_ns, end_ns, parent_id, graph_id, error); the
parent is the span open when it started (-1 for none).  Spans are
appended as they end, kept in a list and written out once, when the run
ends.  They are tuples of atoms, which the garbage collector stops
tracking, so a long trace does not slow collections in the measured code.
"""

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.graph_id = -1
        self._open = []  # (id, start_ns) of the spans still open, innermost last
        self._next_id = 0
        self._by_name = {}

    def span(self, name):
        """Context manager recording one span; one reusable object per name."""
        span = self._by_name.get(name)
        if span is None:
            span = self._by_name[name] = _Span(self, name)
        return span

    def wrap(self, fn, name):
        span = self.span(name)

        def traced(*args, **kwargs):
            with span:
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, module, attr, name):
        """Record a span around every call the module makes through its
        global `attr`.  Leaves the module alone if it has no such global,
        so the layer then reads as zero."""
        original = getattr(module, attr, None)
        if original is None:
            yield
            return
        setattr(module, attr, self.wrap(original, name))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def self_times(self):
        """Per span name: (calls, total ns, self ns), where self time
        excludes the span's direct children."""
        child_ns = defaultdict(int)
        for _, _, start, end, parent, _, _ in self.spans:
            child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for span_id, name, start, end, _, _, _ in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child_ns[span_id]
        return dict(out)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "graph_id", "error"],
                       "spans": self.spans}, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        span_id = t._next_id
        t._next_id = span_id + 1
        t._open.append((span_id, perf_counter_ns()))

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter_ns()
        t = self.tracer
        span_id, start = t._open.pop()
        t.spans.append((span_id, self.name, start, end, t._open[-1][0] if t._open else -1,
                        t.graph_id, exc_type.__name__ if exc_type is not None else None))
        return False
