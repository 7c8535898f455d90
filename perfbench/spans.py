"""In-memory spans around the benchmark's calls into gapsim layers.

A span is (name, start, end, parent, job, phase).  `name` is
`<module>.<function>` of the layer called (or `job.<kind>` for the job
itself), `parent` is the index of the enclosing span or None, `job` is the
job id (or "setup"), and `phase` is "setup", "job" or "probe" (extra calls
a traced pass makes outside the timed job to measure one layer on its own).
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    """Records spans while `enabled`; otherwise `call` is a plain call."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.job: int | str = "setup"
        self.phase = "setup"
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self.job, self.phase]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, job, phase) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "job": job,
                    "phase": phase,
                }
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _job, _phase in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent, _job, _phase) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result
