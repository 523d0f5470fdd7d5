"""In-memory span tracer that wraps callables for the length of a traced pass.

A span is (name, start, end, parent).  Spans are kept in memory and written
out once, when the run ends.  Wrapping replaces a module or instance
attribute with a pass-through that records a span, and the original is put
back when the ``patched`` block exits, so untraced passes run the library
exactly as shipped.  An attribute that is missing (renamed or deleted by a
refactor) is recorded as missing and yields 0 calls instead of an error.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans and per-layer aggregates of one traced pass.

    Aggregates are keyed by (span name, root span name, tag): the root is
    the outermost open span when the span closed (``solver.solve`` for
    everything a solve calls), and the tag is set by the caller, here the
    ODE dimension of the current cell.  Self time is a span's duration
    minus the durations of its direct children; calls are synchronous, so
    children never overlap.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list = []
        self.tag = 0
        self.stats: dict[tuple[str, str, int], list] = {}
        self.missing: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        spans, stack, stats = self.spans, self._stack, self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0, parent[2] if parent else nid]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (nid, start, end, parent[0] if parent else -1)
                if parent is not None:
                    parent[1] += duration
                key = (name, self.names[frame[2]], self.tag)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[1]
                entry[2] += duration

        traced.__wrapped__ = fn
        return traced

    def total(self, name: str, *, root: str | None = None, tag: int | None = None):
        """(calls, self_s, inclusive_s) summed over matching aggregates."""
        calls, self_s, incl = 0, 0.0, 0.0
        for (n, r, t), (c, s, i) in self.stats.items():
            if n == name and (root is None or r == root) and (tag is None or t == tag):
                calls, self_s, incl = calls + c, self_s + s, incl + i
        return calls, self_s, incl

    def write(self, path) -> None:
        """Write the spans as columns: name id, start, end, parent index."""
        rows = [s for s in self.spans if s is not None]
        arr = np.array(rows, dtype=float).reshape(-1, 4)
        t0 = arr[:, 1].min() if arr.size else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name_id=arr[:, 0].astype(np.int32),
            start_s=arr[:, 1] - t0,
            end_s=arr[:, 2] - t0,
            parent=arr[:, 3].astype(np.int64),
        )


def resolve(owner):
    """A module given by dotted name, or the object itself; None if absent."""
    if not isinstance(owner, str):
        return owner
    try:
        return importlib.import_module(owner)
    except ImportError:
        return None


@contextmanager
def patched(tracer: Tracer | None, targets):
    """Wrap each ``(owner, attribute, span name)`` for the block's length.

    ``owner`` is a dotted module name or an object.  With ``tracer`` None
    nothing is touched.
    """
    saved = []
    try:
        if tracer is not None:
            for owner, attr, name in targets:
                obj = resolve(owner)
                fn = getattr(obj, attr, None) if obj is not None else None
                if not callable(fn):
                    label = owner if isinstance(owner, str) else type(owner).__name__
                    tracer.missing.add(f"{label}.{attr}")
                    continue
                setattr(obj, attr, tracer.wrap(name, fn))
                saved.append((obj, attr, fn))
        yield
    finally:
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)
