"""Host-speed calibration: scale measured times to a reference host.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds (other tenants on the same cores).  A fixed slice
of pure-Python work — no allocation, no repository code — is timed
between jobs, and every time a run reports is multiplied by
``REFERENCE_SLICE_S / slice time``: the time the job would have taken
on a host where a slice takes :data:`REFERENCE_SLICE_S`.  A slower
simulator still reads slower; a slower host does not.

The host's speed changes in phases a few jobs long, so a job is scaled
by the slices timed next to it, not by the run's average.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import List

_DATA = tuple(range(256))
#: iterations of the calibration loop per slice
SLICE_ITERATIONS = 4000
#: seconds one slice takes on the reference host (a quiet 2-vCPU x86-64
#: VM running CPython 3.11)
REFERENCE_SLICE_S = 0.0004
#: slices timed per :meth:`HostSpeed.sample`
SLICES_PER_SAMPLE = 3


def _slice() -> int:
    data = _DATA
    total = 0
    for i in range(SLICE_ITERATIONS):
        value = data[i & 255]
        if value & 1:
            total += value * 3
        else:
            total ^= value
        total &= 0xFFFFFF
    return total


class HostSpeed:
    """Calibration samples timed over one run, in the order taken.

    *pause* makes a context in which the slices are timed; the fleet
    workload stops its server there, so fleet work cannot slow them.
    """

    def __init__(self, pause=contextlib.nullcontext):
        self.samples: List[List[float]] = []
        self._pause = pause

    def sample(self, slices: int = SLICES_PER_SAMPLE) -> int:
        """Time *slices* calibration slices; returns the sample's index."""
        times = []
        with self._pause():
            for _ in range(slices):
                start = time.perf_counter()
                _slice()
                times.append(time.perf_counter() - start)
        self.samples.append(times)
        return len(self.samples) - 1

    def scale_after(self, index: int) -> float:
        """Factor for work done between sample *index* and the next one:
        the median slice of the two samples before that work and the two
        after it."""
        window = self.samples[max(0, index - 1):index + 3]
        return REFERENCE_SLICE_S / statistics.median(
            t for times in window for t in times)

    def scale(self) -> float:
        """Factor for the run as a whole: its mean slice.  (Slice times
        cluster around a fast and a slow speed; a median would pick one.)"""
        times = [t for sample in self.samples for t in sample]
        return REFERENCE_SLICE_S * len(times) / sum(times)
