"""In-memory span recorder for the traced run.

A span is one call into a layer's public function, timed from the
benchmark's own wrapper: name, start, end, parent span and unit (or
request) id.  Coarse calls (a unit, a system build, a run) are kept as
span records and written out when the benchmark ends; hot calls (one per
arrival, event or score) only add to per-name counters, so memory stays
bounded.  Both kinds charge their duration to the enclosing call, which
is how self time — a span's duration minus the time its child spans
cover — is computed for every layer.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns


class Tracer:
    """Stack-based span recorder for one single-threaded process."""

    def __init__(self) -> None:
        #: Recorded spans: [name, start_ns, end_ns, parent_index, unit_id].
        self.spans: list[list] = []
        #: name -> [calls, total_ns, self_ns]
        self.totals: dict[str, list[int]] = {}
        #: Open calls: [start_ns, child_ns, span_index, recorded_ancestor, name].
        self._stack: list[list[int]] = []
        self.unit_id = -1

    # -- primitives -------------------------------------------------------------
    def enter(self, name: str, record: bool) -> list:
        stack = self._stack
        ancestor = stack[-1][3] if stack else -1
        index = -1
        if record:
            index = len(self.spans)
            self.spans.append([name, 0, 0, ancestor, self.unit_id])
        frame = [0, 0, index, index if record else ancestor, name]
        stack.append(frame)
        frame[0] = perf_counter_ns()
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        name = frame[4]
        if stack and stack[-1][4] is name:
            # A layer calling itself: the outer call covers this one.
            stack[-1][1] += frame[1]
            return
        duration = end - frame[0]
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        if stack:
            stack[-1][1] += duration
        if frame[2] >= 0:
            span = self.spans[frame[2]]
            span[1], span[2] = frame[0], end

    # -- wrappers -----------------------------------------------------------------
    def wrap(self, name: str, fn, record: bool = False):
        """``fn`` with every call timed as span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(frame)

        return traced

    def wrap_iter(self, name: str, fn):
        """``fn`` returning an iterator whose every ``next`` is a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                frame = self.enter(name, False)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.leave(frame)
                yield item

        return traced

    # -- read-out -----------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def total_ns(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[1]

    def self_ns(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[2]

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines (one per span)."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, unit) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "unit": unit}
                    )
                    + "\n"
                )
