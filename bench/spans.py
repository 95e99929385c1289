"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, a start, an end, the span that caused it, and the id
of the input it belongs to.  Spans stay in memory while the benchmark
runs and are written out once at the end.  A layer's self time is its
spans' durations minus the parts their child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent id, input id]
        self.input_id = None
        self._stack = []

    @contextmanager
    def span(self, name):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.input_id]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self, first=0):
        """Self time summed by span name over the spans from index first on."""
        spans = self.spans[first:]
        covered = defaultdict(float)
        for sid, _, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for sid, name, start, end, _, _ in spans:
            totals[name] += end - start - covered[sid]
        return totals

    def total(self, name, first=0):
        """Summed duration of the spans with this name."""
        return sum(end - start for _, n, start, end, _, _ in self.spans[first:] if n == name)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, input_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "input": input_id}) + "\n")


@contextmanager
def patched(module, replacements):
    """Set module attributes to the given replacements for the duration of
    the block, so that calls the module makes by those names go through
    the benchmark's wrappers; the originals come back afterwards."""
    saved = {attr: getattr(module, attr) for attr in replacements}
    try:
        for attr, fn in replacements.items():
            setattr(module, attr, fn)
        yield saved
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)
