"""Timing, spans and check bookkeeping for one benchmark process.

A Tracer times every program call a workload makes through ``call``.  The
summed durations of one round are that round's wall time; checks run
outside ``call`` and are never timed.  With tracing on, each call is also
kept as a span (name, start, end, parent round) and written out when the
run ends; with tracing off no span is kept.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list = []  # (name, start, end, parent span index or None)
        self.counts: dict = defaultdict(int)
        self.busy = 0.0  # seconds spent inside call() since the round began
        self._parent = None

    @contextmanager
    def round(self, workload: str):
        """Group the calls of one round under a parent span."""
        self.busy = 0.0
        start = time.perf_counter()
        if self.tracing:
            self._parent = len(self.spans)
            self.spans.append([f"round.{workload}", start, None, None])
        try:
            yield
        finally:
            if self.tracing:
                self.spans[self._parent][2] = time.perf_counter()
                self._parent = None

    @contextmanager
    def call(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.busy += end - start
            if self.tracing:
                self.spans.append([name, start, end, self._parent])

    def count(self, name: str, n: int) -> None:
        self.counts[name] += int(n)

    def seconds(self, name: str) -> float:
        """Total duration of the spans with this name."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def dump(self, path) -> None:
        rows = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}, indent=1))


class Checks:
    """Counts checked operations; remembers what failed.

    A check named in ``known_faults`` that fails is counted in ``failed``
    but leaves the run correct: it marks a fault the program has today.
    Any other failed check makes the run incorrect.
    """

    def __init__(self, known_faults=()):
        self.known_faults = frozenset(known_faults)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if name not in self.known_faults:
                self.problems.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems
