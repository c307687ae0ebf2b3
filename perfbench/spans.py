"""In-memory spans recorded by the benchmark's own wrappers.

A span is [name, start, end, parent, attrs]: perf_counter seconds, the
index of the enclosing span (None at the top) and a dict of counts or
times measured inside it.  Nothing here reaches into holosim; the
wrappers sit around the calls the benchmark makes into each module.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._open[-1] if self._open else None, {}]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record[4]
        finally:
            self._open.pop()
            record[2] = perf_counter()

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "attrs")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


class NullTracer:
    """Same interface, records nothing: the untraced passes use it."""

    enabled = False

    def span(self, name: str):
        return nullcontext({})


def self_times(spans: list[list], root: int) -> dict[str, float]:
    """Self time per span name over the subtree at index root: each
    span's duration minus the part its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    members = {root}
    # spans are stored in start order, so a subtree is contiguous
    end = root + 1
    while end < len(spans) and spans[end][3] in members:
        members.add(end)
        child_time[spans[end][3]] += spans[end][2] - spans[end][1]
        end += 1
    out: dict[str, float] = defaultdict(float)
    for i in range(root, end):
        name, start, end = spans[i][:3]
        out[name] += end - start - child_time[i]
    return dict(out)
