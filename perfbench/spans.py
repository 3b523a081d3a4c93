"""Spans recorded around tailwise's public functions, and their arithmetic.

A span is (name, start, end, parent index); parent -1 marks a root. The
recorder keeps spans in memory and the child process writes them out once,
when its command ends. Self time is a span's duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack = [-1]
        self.notes: list[list] = []  # [kind, value...] counters taken at span sites

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered(children[i])
            for i, (_, start, end, _) in enumerate(spans)]
