"""Spans around the harness's calls into each layer, recorded from outside.

`Tracer.patch(harness)` swaps every function that `codedgi.harness` imports
from another codedgi module for a wrapper that records a span named
"<module>.<function>", and wraps the per-trial worker that `_map_jobs`
receives in a "harness.trial" span. Nothing in the package changes; the
original functions are put back on exit. Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import time


def _edges(ens) -> int:
    return sum(len(p) for p in ens.patterns)


def _decode_attrs(edges_of):
    def attrs(args, result):
        diag = result.diagnostics
        return {
            "iterations": diag.iterations_run,
            "converged": bool(diag.converged),
            "edges": edges_of(args[1]),
        }

    return attrs


# Counts read off a call's arguments and result once its span has ended.
_ATTRS = {
    "forward.patterns_from_generator": lambda args, out: {"edges": _edges(out)},
    "forward.random_speckle": lambda args, out: {"edges": _edges(out)},
    "decoder.decode_sum_bp": _decode_attrs(_edges),
    "decoder.decode_gf2_bp": _decode_attrs(lambda h: sum(len(r) for r in h.rows)),
    "metrics.ber": lambda args, out: {"value": float(out)},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "attrs")

    def __init__(self, name, parent, trial):
        self.name = name
        self.parent = parent
        self.trial = trial
        self.start = self.end = 0
        self.attrs = None

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Span recorder for one traced sweep; times are perf_counter_ns."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trial = -1

    def wrap(self, name, fn):
        attrs = _ATTRS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self._trial)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, out)
            return out

        return traced

    def _trial_worker(self, worker):
        traced_worker = self.wrap("harness.trial", worker)
        counter = itertools.count()

        def run_trial(job):
            self._trial = next(counter)
            try:
                return traced_worker(job)
            finally:
                self._trial = -1

        return run_trial

    @contextlib.contextmanager
    def patch(self, harness):
        """Trace the harness's layer calls inside the `with` block."""
        saved = {}
        for name, obj in vars(harness).items():
            module = getattr(obj, "__module__", "") or ""
            if (
                inspect.isfunction(obj)
                and module.startswith("codedgi.")
                and module != harness.__name__
            ):
                saved[name] = obj
        if not hasattr(harness, "_map_jobs"):
            raise RuntimeError("codedgi.harness._map_jobs is gone; trial spans need a new hook")
        saved["_map_jobs"] = map_jobs = harness._map_jobs
        try:
            for name, fn in saved.items():
                if name != "_map_jobs":
                    layer = fn.__module__.rsplit(".", 1)[1]
                    setattr(harness, name, self.wrap(f"{layer}.{fn.__name__}", fn))
            harness._map_jobs = lambda jobs, worker, threads: map_jobs(
                jobs, self._trial_worker(worker), threads
            )
            yield self
        finally:
            for name, fn in saved.items():
                setattr(harness, name, fn)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest and do not overlap, so the children's union is
    the sum of their durations, and the self times of all spans add up to
    the duration of the root spans.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own
