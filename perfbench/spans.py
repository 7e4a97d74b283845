"""In-memory span recorder and the small statistics the benchmark reports.

A span is (name, start, end, parent, run): ``parent`` is the index of the
enclosing span or -1, and ``run`` numbers the iteration the span belongs to
(0 is set-up).  A span may also carry ``bytes``, the artifact bytes the call
wrote or read.  Spans stay in memory until :meth:`Tracer.dump` writes them.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

#: Spans whose name starts with this prefix are the benchmark's own work
#: (checks and probes); they never count toward a timed iteration.
OWN = "bench."


class Tracer:
    """Nested wall-clock spans, kept in a list."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run = 0

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else -1,
               "run": self.run}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def timed_spans(self, rec: dict) -> list[dict]:
        """The package calls directly under ``rec`` (the benchmark's own work excluded)."""
        return [s for s in self.spans
                if s["parent"] == rec["id"] and not s["name"].startswith(OWN)]

    def timed(self, rec: dict) -> float:
        return sum(s["end"] - s["start"] for s in self.timed_spans(rec))

    def per_parent(self, name: str, parent_name: str) -> list[float]:
        """Seconds in ``name`` spans, summed per directly enclosing ``parent_name`` span."""
        sums = {s["id"]: 0.0 for s in self.spans if s["name"] == parent_name}
        for s in self.spans:
            if s["name"] == name and s["parent"] in sums:
                sums[s["parent"]] += s["end"] - s["start"]
        return list(sums.values())

    def mb_per_s(self, name: str) -> float:
        """Bytes carried by ``name`` spans over their total time, in MB/s (0 if none)."""
        spans = [s for s in self.spans if s["name"] == name and "bytes" in s]
        seconds = sum(s["end"] - s["start"] for s in spans)
        return sum(s["bytes"] for s in spans) / 1e6 / seconds if seconds else 0.0

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**header, "spans": self.spans}, f)


def median(values) -> float:
    """Median, or 0.0 when the layer was not called on this workload."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method), or 0.0 for no samples."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
