"""Spans recorded around calls into vmfbs, from the benchmark's own files.

Each wrapper delegates to the real vmfbs object and records one span per
call: its name, start, end and the span that was open when it began.
Spans stay in memory for the whole run and are summarised (and saved)
when the run ends. Nothing inside ``src/`` is patched: the solver simply
receives wrapped terms, a wrapped ``LinearMap`` and a wrapped schedule.

The line-search functions are deliberately not wrapped. Their work shows
up as self time of the ``solver`` span, so the layer split survives a
refactor that merges or renames them.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

import vmfbs

# Span names. The layer of a span is the text before its first dot.
SPAN_NAMES = (
    "solver",
    "smooth.value",
    "smooth.grad",
    "smooth.domain",
    "smooth.linearmap",
    "prox.prox",
    "prox.gvalue",
    "prox.domain",
    "metrics",
    "diagnostics",
)
_CODE = {name: i for i, name in enumerate(SPAN_NAMES)}


class Tracer:
    """In-memory span log: parallel arrays of name code, start, end, parent."""

    def __init__(self):
        self.codes = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.codes)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.codes)
        self.codes.append(_CODE[name])
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(np.nan)
        self._open.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._open.pop()

    def table(self) -> dict:
        """Spans as numpy arrays, with self time and the root of each span.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap (one thread, strictly
        nested calls), so the self times of a tree add up to its root.
        """
        codes = np.frombuffer(self.codes, dtype=np.int8).astype(np.int64)
        starts = np.frombuffer(self.starts, dtype=float)
        ends = np.frombuffer(self.ends, dtype=float)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = ends - starts
        child = parents >= 0
        self_time = dur.copy()
        np.subtract.at(self_time, parents[child], dur[child])
        roots = np.where(child, parents, np.arange(parents.size))
        while True:
            up = parents[roots]
            move = up >= 0
            if not move.any():
                break
            roots = np.where(move, up, roots)
        return {
            "codes": codes, "starts": starts, "ends": ends, "parents": parents,
            "duration": dur, "self": self_time, "roots": roots,
        }

    def save(self, path) -> None:
        t = self.table()
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES), codes=t["codes"], starts=t["starts"],
            ends=t["ends"], parents=t["parents"],
        )


class TracedLinearMap(vmfbs.LinearMap):
    """``LinearMap`` whose products (A x and A^T r) each record a span."""

    def __init__(self, a, tracer: Tracer):
        super().__init__(a)
        self._tracer = tracer

    def apply(self, x):
        return self._tracer.call("smooth.linearmap", super().apply, x)

    def adjoint(self, r):
        return self._tracer.call("smooth.linearmap", super().adjoint, r)


class TracedSmooth(vmfbs.SmoothTerm):
    """Delegating wrapper around the smooth term f."""

    def __init__(self, f: vmfbs.SmoothTerm, tracer: Tracer):
        self._f = f
        self._tracer = tracer
        self.lower_bound = f.lower_bound

    @property
    def lipschitz_bound(self):
        return self._f.lipschitz_bound

    def value(self, x):
        return self._tracer.call("smooth.value", self._f.value, x)

    def gradient(self, x):
        return self._tracer.call("smooth.grad", self._f.gradient, x)

    def in_domain(self, x):
        return self._tracer.call("smooth.domain", self._f.in_domain, x)

    def in_interior_domain(self, x):
        return self._tracer.call("smooth.domain", self._f.in_interior_domain, x)


class TracedProx(vmfbs.ProxTerm):
    """Delegating wrapper around the prox term g."""

    def __init__(self, g: vmfbs.ProxTerm, tracer: Tracer):
        self._g = g
        self._tracer = tracer
        self.separable = g.separable
        self.lower_bound = g.lower_bound

    def value(self, x):
        return self._tracer.call("prox.gvalue", self._g.value, x)

    def prox(self, z, gamma, weights=None):
        return self._tracer.call("prox.prox", self._g.prox, z, gamma, weights)

    def in_domain(self, x):
        return self._tracer.call("prox.domain", self._g.in_domain, x)

    def subdiff_distance(self, p, u):
        return self._g.subdiff_distance(p, u)


class TracedSchedule:
    """Delegating wrapper around a ``MetricSchedule``; ``metric_at`` is a span."""

    def __init__(self, schedule: vmfbs.MetricSchedule, tracer: Tracer):
        self._schedule = schedule
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._schedule, name)

    def metric_at(self, k, snapshot=None):
        return self._tracer.call("metrics", self._schedule.metric_at, k, snapshot)


class Plain:
    """Builds the untraced pieces: the vmfbs objects themselves."""

    tracer = None

    def linear_map(self, a):
        return vmfbs.LinearMap(a)

    def smooth(self, f):
        return f

    def prox(self, g):
        return g

    def schedule(self, s):
        return s

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Traced:
    """Builds the same pieces wrapped so every call into them is a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def linear_map(self, a):
        return TracedLinearMap(a, self.tracer)

    def smooth(self, f):
        return TracedSmooth(f, self.tracer)

    def prox(self, g):
        return TracedProx(g, self.tracer)

    def schedule(self, s):
        return TracedSchedule(s, self.tracer)

    def call(self, name, fn, *args, **kwargs):
        return self.tracer.call(name, fn, *args, **kwargs)
