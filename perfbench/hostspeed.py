"""Host speed meter: puts child times on one scale of CPU speed.

The benchmark runs on a few vCPUs of a shared host.  The speed of one vCPU
changes by up to a third over seconds as other tenants come and go, and
process CPU time changes with it, so raw times of the same work spread
more from run to run than any bound worth keeping.  The meter measures
that speed beside the program: a thread of the benchmark, pinned to the
same CPU as the children, times a fixed pure-Python chunk every PERIOD_S
while a child runs.  A child's time is then scaled by REF_CHUNK_S over the
median chunk time around it, which gives the time the child would have
taken at the reference speed.  The chunk uses about 3% of the CPU the child
runs on, the same share on every commit.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

PERIOD_S = 0.05
CHUNK_LOOPS = 20_000
# a typical time of the chunk on the reference machine (2 vCPUs of a
# 2.1 GHz Xeon); it fixes the unit of every reported time
REF_CHUNK_S = 0.0015
# a child shorter than this many samples is scaled by the nearest ones
MIN_SAMPLES = 20


def chunk() -> int:
    s = 0
    for i in range(CHUNK_LOOPS):
        s += i * i % 7
    return s


class SpeedMeter:
    """Samples chunk times while `busy` is set; use as a context manager."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self.busy = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "SpeedMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self.busy.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.busy.wait()
            t0 = time.perf_counter()
            chunk()
            t1 = time.perf_counter()
            # a sample that overlaps the benchmark's own work is not kept
            if self.busy.is_set() and not self._stop.is_set():
                self.starts.append(t0)
                self.durations.append(t1 - t0)

    def chunk_s(self, t0: float, t1: float) -> float | None:
        """Median chunk time over [t0, t1], widened to the MIN_SAMPLES
        samples nearest to it when fewer fall inside; None without samples."""
        starts = self.starts
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(starts)):
            if hi == len(starts) or (lo > 0 and t0 - starts[lo - 1] <= starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.durations[lo:hi]) if hi > lo else None

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """seconds, measured over [t0, t1], at the reference speed."""
        measured = self.chunk_s(t0, t1)
        return seconds if measured is None else seconds * REF_CHUNK_S / measured
