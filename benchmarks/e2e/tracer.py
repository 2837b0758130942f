"""In-memory span recorder for the traced run.

A span is ``(id, name, start, end, parent id, operation id)``.  Spans are
recorded from the benchmark's own files only — around the calls it makes
into the program, and around public methods it wraps on instances it owns
(:meth:`Tracer.wrap`) — kept in memory, and written out once when the run
ends.  A layer's *self time* is its spans' duration minus the part of
those intervals their child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer"]


class Tracer:
    """Collects spans; nesting is tracked per thread.

    The stack of open spans is thread-local because the thread worker
    backend calls wrapped engine methods from an executor thread; such a
    span takes :attr:`foster_parent` as its parent (the replay sets it to
    the batch it is pushing through the engine, the load loop to the
    operation its single caller is in).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        #: parent for spans opened on a thread with no open span of its own
        self.foster_parent: int | None = None
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None,
        op: int | None = None,
        span_id: int | None = None,
    ) -> int:
        """Record a finished span measured by the caller; returns its id."""
        span_id = self.new_id() if span_id is None else span_id
        self.spans.append((span_id, name, start, end, parent, op))
        return span_id

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Time the body as a span nested under this thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else self.foster_parent
        span_id = self.new_id()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, op))

    def wrap(self, owner: object, method: str, name: str, seconds: list | None = None):
        """Shadow ``owner.method`` with a span-recording instance attribute.

        Each call's duration is also appended to ``seconds`` when given.
        Returns an ``unwrap`` callable that deletes the shadow again.  Only
        the one instance is touched — the class, and every other instance,
        keep the plain method.
        """
        inner = getattr(owner, method)

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                with self.span(name):
                    return inner(*args, **kwargs)
            finally:
                if seconds is not None:
                    seconds.append(time.perf_counter() - start)

        setattr(owner, method, traced)
        return lambda: delattr(owner, method)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def self_times(self) -> dict[str, tuple[int, float]]:
        """``name -> (span count, total self seconds)``.

        Self time = a span's duration minus the part of that interval its
        direct children cover.  Children may overlap (the operations of
        concurrent callers inside one round), so the covered part is the
        union of their intervals, not the sum.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span_id, name, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - covered
        return {name: (count, seconds) for name, (count, seconds) in totals.items()}

    def write(self, path: Path, header: dict) -> None:
        """Dump every span plus the per-name self-time table as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **header,
            "columns": ["id", "name", "start_s", "end_s", "parent", "op"],
            "self_time_s": {
                name: {"spans": count, "self_s": seconds}
                for name, (count, seconds) in sorted(self.self_times().items())
            },
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
