"""Reference-speed calibration for a shared, drifting host.

Host speed on a shared machine drifts by tens of percent over seconds
to minutes (neighbours contend for the cores and their caches).  The
benchmark therefore interleaves short calibration slices with the
workload (one per records round, one every few served requests) and
scales each host duration by the slice's current speed relative to
:data:`REF_NS`.  A timing so scaled reads as host time at the
reference speed: a change inside ``repro`` moves it, a busier
neighbour mostly does not.  Raw host times are reported beside the
scaled ones.

A slice is a fixed pure-Python walk of random lookups over a table of
a few megabytes.  The same walk runs once untimed right before the
timed one, so the timed walk starts with its working set in cache
whatever the workload left behind: a change in ``repro`` that grows
its own working set slows the workload, not the slice, and so is not
divided away.  What the slice still sees is contention while it runs
(a neighbour on the sibling core, frequency, steal).
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Sequence

#: Lookups per walk (about 0.75 ms under CPython 3.11 on a 2020s x86
#: Xeon core; a slice is two walks).
LOOKUPS = 3000
#: Host nanoseconds of one slice at the reference speed.  Scaled times
#: equal raw host times whenever the host runs a slice this fast.
REF_NS = 750_000
#: Slices per rolling-median window.
WINDOW = 7


class Calibrator:
    """Owns the lookup table (65536 large ints, built once, seeded)."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = [rng.getrandbits(48) for _ in range(1 << 16)]

    def _walk(self) -> int:
        table = self._table
        state = 12345
        folded = 0
        for _ in range(LOOKUPS):
            state = (state * 1103515245 + 12345) & 0xFFFFFFFF
            folded ^= table[state >> 16]
        return folded

    def slice_ns(self) -> int:
        """Run one calibration slice (an untimed warm walk, then the
        timed one); returns the timed walk's host nanoseconds."""
        self._walk()
        start = time.perf_counter_ns()
        self._walk()
        return time.perf_counter_ns() - start


def slowdowns(slices: Sequence[int], window: int = WINDOW) -> List[float]:
    """Per-slice host slowdown against the reference speed: the
    rolling median of the slices around it over :data:`REF_NS`."""
    half = window // 2
    return [statistics.median(slices[max(0, i - half):i + half + 1]) / REF_NS
            for i in range(len(slices))]


class Timing:
    """Per-batch host rates and per-operation host samples, raw and
    scaled to the reference speed."""

    def __init__(self) -> None:
        self.rates: List[float] = []
        self.scaled_rates: List[float] = []
        self.samples: List[int] = []
        self.scaled_samples: List[float] = []

    def add(self, ops: int, work_s: float, slowdown: float,
            samples: List[int], slowdowns: List[float]) -> None:
        """One batch: ``ops`` in ``work_s`` host seconds at an average
        ``slowdown``; ``samples[i]`` ran at ``slowdowns[i]``."""
        self.rates.append(ops / work_s)
        self.scaled_rates.append(ops * slowdown / work_s)
        self.samples.extend(samples)
        self.scaled_samples.extend(
            sample / factor for sample, factor in zip(samples, slowdowns))
