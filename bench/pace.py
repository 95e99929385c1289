"""The processor's pace, measured alongside the benchmark's own work.

A shared host slows this process down by up to 2x, in phases that last
from a fraction of a second to minutes, and the slow-down shows in
process CPU time as much as in wall time.  A timing taken in a slow phase
is therefore not comparable with one taken in a fast phase, and a whole
run can fall in either.

While a `Pace` is active, a wall-clock timer interrupts the process every
TICK_S and runs a fixed probe: pure-Python dict and tuple work over a
few megabytes of objects, so that it is slowed down by a busy core and a
busy cache much as torusquot is.  The probe does not touch torusquot, so
no change to the program moves it.  A sample's time at the reference
pace is its wall time, less the probes that ran inside it, times
REFERENCE_PROBE_S over the median probe time around the sample.  The
process and the subprocesses it times are kept on one CPU, so that the
probe meets the contention they meet.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import time

TICK_S = 0.05
# about the probe's time on an idle core of a 2-vCPU virtual machine
# with Python 3.11, where the fastest probes read 0.37-0.39 ms
REFERENCE_PROBE_S = 0.0004
# probes up to this far before and after a sample count towards its pace,
# so that a sample shorter than a tick still has several
WINDOW_S = 0.25
PROBE_STEPS = 1200
PROBE_OBJECTS = 20000
_HEAP = [(i, i * i % 1009) for i in range(PROBE_OBJECTS)]


def probe(state):
    """Fixed work from a pseudo-random walk over the heap; returns where the
    walk stopped, so that the next probe goes on from there."""
    counts = {}
    for _ in range(PROBE_STEPS):
        state = (state * 1103515245 + 12345) % PROBE_OBJECTS
        a, b = _HEAP[state]
        counts[b] = counts.get(b, 0) + a
    return state


def pin_to_one_cpu():
    """Keep this process, and the subprocesses it starts, on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Pace:
    """Use as a context manager; while it is active, `sample` times calls
    and `seconds` turns a sample into seconds at the reference pace."""

    def __init__(self):
        self.ends, self.lengths = [], []  # one entry per probe
        self.probe_total = 0.0
        self._state = 1

    def _tick(self, signum, frame):
        # a collection started by the probe's allocations would make this
        # one probe many times slower; the program pays for it later instead
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._state = probe(self._state)
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(t1)
        self.lengths.append(t1 - t0)
        self.probe_total += t1 - t0

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def sample(self, fn, *args):
        """Call fn(*args); returns ((start, end, wall time less probes),
        result)."""
        probed = self.probe_total
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        return (t0, t1, t1 - t0 - (self.probe_total - probed)), result

    def factor(self, start, end):
        """REFERENCE_PROBE_S over the median probe time in [start - WINDOW_S,
        end + WINDOW_S], or of the probes next to that window when it holds
        none.  The median, because an interrupt that lands on a probe makes
        it an outlier but costs a sample only its own length."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        lo, hi = (lo, hi) if hi > lo else (max(0, lo - 1), lo + 1)
        return REFERENCE_PROBE_S / statistics.median(self.lengths[lo:hi])

    def seconds(self, sample):
        """A sample's time at the reference pace.  Call it once the probes
        after the sample have run, at the end of a run."""
        start, end, work = sample
        return work * self.factor(start, end)
