"""Span tracer that times library functions from outside the library.

``Tracer.wrap(module, attr, name)`` rebinds ``module.attr`` to a wrapper that
records one span per call; ``install``/``uninstall`` switch every wrapper on
and off, so a run without tracing executes the library's own functions.
``name`` is a string or a function of the call's arguments, which lets one
binding be split into several spans (by sampling mode, batch width, method).

Spans are stored compactly, one row per span in four typed arrays: the name
id, the parent span's index (-1 at top level), and the start and end times.
A grid pass records a few hundred thousand spans, about 24 bytes each.
Aggregation happens once, after the run, with NumPy.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = len(self.end)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        try:
            yield
        finally:
            self.end[index] = self.clock()
            self._stack.pop()

    def wrap(self, owner, attr: str, name) -> None:
        # The span bookkeeping of ``span`` is inlined here, with every lookup
        # bound in advance: this wrapper runs ~100 000 times per grid pass.
        original = getattr(owner, attr)
        name_of = name if callable(name) else None
        fixed = None if callable(name) else self._id(name)
        ident, stack, clock = self._id, self._stack, self.clock
        end = self.end
        add_name, add_parent = self.name_id.append, self.parent.append
        add_start, add_end = self.start.append, end.append

        def traced(*args, **kwargs):
            index = len(end)
            add_name(fixed if name_of is None else ident(name_of(*args, **kwargs)))
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        self._patches.append((owner, attr, original, traced))

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span; phases are ranges of span indices."""
        return len(self.start)

    # -- aggregation -------------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict[str, dict]:
        """Per-name calls, durations and self time of spans lo..hi-1.

        A span's self time is its duration minus the durations of its direct
        children; spans opened inside [lo, hi) have their parents there too.
        """
        if hi <= lo:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        names = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=hi - lo)
        self_time = dur - child
        order = np.argsort(names, kind="stable")
        bounds = np.flatnonzero(np.diff(names[order])) + 1
        out: dict[str, dict] = {}
        for group in np.split(order, bounds):
            out[self.names[int(names[group[0]])]] = {
                "calls": int(group.size),
                "durations": dur[group],
                "self_s": float(self_time[group].sum()),
            }
        return out

