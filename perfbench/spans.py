"""Spans recorded by the benchmark around its own calls into gpdkit.

A span has a name, a start and an end on the monotonic clock, and the index
of the span that was open when it began.  Spans stay in memory and are
written out once, when the run ends.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
