"""Spans recorded around the benchmark's calls into vcspace.

A span is (name, start, end, parent, instance, tag): `parent` is the index of
the enclosing span or -1, `instance` names the instance the work belongs to,
and `tag` marks a subset of one span name (odd-cycle growth steps).  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import csv
import statistics
from contextlib import contextmanager
from time import perf_counter

SPAN_FIELDS = ("name", "start", "end", "parent", "instance", "tag")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.instance = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = ""):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.instance, tag))
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.instance, tag)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def self_times(self) -> dict[tuple[str, str], float]:
        """Summed self time per (name, tag).

        A span's self time is its duration minus the time its child spans
        cover.
        """
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        totals: dict[tuple[str, str], float] = {}
        for t, span in zip(own, self.spans):
            key = (span[0], span[5])
            totals[key] = totals.get(key, 0.0) + t
        return totals

    def median_duration(self, name: str) -> float:
        durations = [end - start for n, start, end, _, _, _ in self.spans if n == name]
        return statistics.median(durations) if durations else 0.0

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(SPAN_FIELDS)
            for name, start, end, parent, instance, tag in self.spans:
                out.writerow((name, repr(start), repr(end), parent, instance, tag))
