"""In-memory span tracer that times tanglesum's layers from outside.

The tracer never edits the library.  It replaces a public function on the
module where its caller looks it up (``tables.invariant``,
``engine.evaluate``, ...) with a wrapper that records a span, and puts the
original back afterwards.  Wrappers are only in place while a root span is
open, so every wrapped call has a parent.  Spans are kept in memory as
``(id, name, start, end, parent)`` and written out when the benchmark ends.

Calls that happen once per colouring would make millions of spans, so two
wrappers are *leaves*: each call adds its duration to one aggregate per
(parent span, name) instead of a span of its own.  A generator function
(``engine.enumerate_colourings``) is timed inside each ``next()``, which
is its self time; the caller's work between items is not counted.

Self time of a span is its duration minus the time covered by its child
spans and leaf aggregates.  The self times of every span under one root
add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter


class Tracer:
    """Spans, leaf aggregates and counters of one or more traced passes."""

    def __init__(self) -> None:
        self.spans: list[list] = []        # [id, name, start, end, parent]
        self.leaves: dict[tuple[int, str], list] = {}  # -> [seconds, calls]
        self.counts: dict[tuple[int, str], int] = {}   # (root, name) -> n
        self._stack: list[int] = []
        self._root = -1
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._root = sid
        self.spans.append([sid, name, perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        popped = self._stack.pop()
        if popped != sid:  # pragma: no cover - a wrapper bug, not a timing
            raise RuntimeError(f"span {sid} closed out of order ({popped})")

    def count(self, name: str, n: int = 1) -> None:
        key = (self._root, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _leaf(self, name: str, seconds: float) -> None:
        agg = self.leaves.setdefault((self._stack[-1], name), [0.0, 0])
        agg[0] += seconds
        agg[1] += 1

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def patch(self, module, attr: str, name: str, leaf: bool = False,
              counter=None, on_call=None) -> None:
        """Wrap module.attr for the tracer.

        A missing or uncallable module.attr raises AttributeError: a trace
        point that silently disappeared would move its time into its
        caller's self time.

        Every wrapper counts ``<name>.calls``; a generator also counts the
        items it yields as ``<name>.items``.  counter(result) and
        on_call(args, kwargs) return {count name: n} to add to the counters,
        after a span call resp. when a generator starts.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise AttributeError(f"trace point {module.__name__}.{attr} "
                                 f"is missing or not callable")
        self._saved.append((module, attr, fn))
        setattr(module, attr, self._wrap(fn, name, leaf, counter, on_call))

    def unpatch(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str, leaf: bool, counter, on_call):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.count(name + ".calls")
                if on_call is not None:
                    for key, n in on_call(args, kwargs).items():
                        tracer.count(key, n)
                it = fn(*args, **kwargs)
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._leaf(name, perf_counter() - t0)
                        return
                    tracer._leaf(name, perf_counter() - t0)
                    tracer.count(name + ".items")
                    yield item
            return gen_wrapper

        if leaf:
            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                tracer.count(name + ".calls")
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._leaf(name, perf_counter() - t0)
            return leaf_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer.count(name + ".calls")
            if counter is not None:
                for key, n in counter(result).items():
                    tracer.count(key, n)
            return result
        return span_wrapper

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def breakdown(self, root: int) -> dict:
        """Self and inclusive seconds per name, and counters, under root."""
        inside = {root}
        child = {}
        for sid, _, start, end, parent in self.spans[root + 1:]:
            if parent in inside:
                inside.add(sid)
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        for (parent, name), (seconds, _) in self.leaves.items():
            if parent in inside:
                child[parent] = child.get(parent, 0.0) + seconds
                self_s[name] = self_s.get(name, 0.0) + seconds
                incl_s[name] = incl_s.get(name, 0.0) + seconds
        for sid in sorted(inside):
            _, name, start, end, _ = self.spans[sid]
            dur = end - start
            self_s[name] = self_s.get(name, 0.0) + dur - child.get(sid, 0.0)
            incl_s[name] = incl_s.get(name, 0.0) + dur
        counts = {name: n for (r, name), n in self.counts.items() if r == root}
        return {"self_s": self_s, "incl_s": incl_s, "counts": counts}

    def dump(self) -> dict:
        """Spans and leaf aggregates as plain JSON-ready lists."""
        return {
            "spans": [[sid, name, start, end, parent]
                      for sid, name, start, end, parent in self.spans],
            "leaves": [[parent, name, seconds, n]
                       for (parent, name), (seconds, n) in self.leaves.items()],
            "span_fields": ["id", "name", "start", "end", "parent"],
            "leaf_fields": ["parent", "name", "seconds", "calls"],
        }
