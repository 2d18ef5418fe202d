"""Spans around the benchmark's calls into rfdestab, plus call shims.

A span covers one public call a workload makes (``integrate``,
``check_razumikhin``, ``fading_sup`` ...).  A shim wraps a callable that user
code hands to the library (the system's ``dynamics`` and ``output``, energy
evaluators, analytic Dini terms, the rate of ``kl_from_rate``).  A run makes
hundreds of thousands of shim calls, so a shim does not open a span of its
own: it adds its call count and its time to the span that is open when it
runs.  A span's self time is its duration minus the time its shims covered.
No library internals are patched.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans do nothing and shims are the callables themselves."""

    traced = False

    def span(self, name):
        return _NULL

    def shim(self, kind, fn, knots=False):
        return fn

    def count(self, name, value):
        pass


class Tracer:
    """Tracing on: keeps span totals and shim counts in memory."""

    traced = True

    def __init__(self):
        self.spans = defaultdict(lambda: [0.0, 0.0, 0])      # name -> [s, shim s, entries]
        self.calls = defaultdict(lambda: [0, 0.0, 0])        # (span, kind) -> [calls, s, knots]
        self.counts = defaultdict(int)                       # name -> count
        self._open = ["", 0.0]                               # [span name, shim s inside]

    @contextmanager
    def span(self, name):
        frame = [name, 0.0]
        outer, self._open = self._open, frame
        t0 = perf_counter()
        try:
            yield
        finally:
            rec = self.spans[name]
            rec[0] += perf_counter() - t0
            rec[1] += frame[1]
            rec[2] += 1
            self._open = outer

    def shim(self, kind, fn, knots=False):
        """Wrap ``fn``; with ``knots`` the second argument is a window whose
        grid size is summed (the RHS's ``seg``)."""

        def wrapped(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            frame = self._open
            frame[1] += dt
            rec = self.calls[frame[0], kind]
            rec[0] += 1
            rec[1] += dt
            if knots:
                rec[2] += args[1].grid.size
            return out

        return wrapped

    def count(self, name, value):
        self.counts[name] += int(value)

    # -- readouts ------------------------------------------------------------
    def span_s(self, prefix):
        return sum(rec[0] for name, rec in self.spans.items() if name.startswith(prefix))

    def self_s(self, prefix):
        return sum(rec[0] - rec[1] for name, rec in self.spans.items() if name.startswith(prefix))

    def entries(self, prefix):
        return sum(rec[2] for name, rec in self.spans.items() if name.startswith(prefix))

    def shim_total(self, kind, field, spans=None):
        """Sum one field (0 calls, 1 seconds, 2 knots) of a shim kind, over the
        spans whose names start with one of ``spans`` (all spans when None)."""
        return sum(
            rec[field]
            for (span, k), rec in self.calls.items()
            if k == kind and (spans is None or span.startswith(spans))
        )
