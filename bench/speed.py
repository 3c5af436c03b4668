"""Times in reference seconds.

The benchmark's times are CPU seconds of this process, so time slices that
other processes take are not counted.  On a shared machine the speed a
process gets still drifts, by up to two-fold, in spells from milliseconds
to tens of seconds, and how much of a 20 s run falls in slow spells varies
from run to run.  Raw medians of ten runs of one workload spread by up to
40 %.  So a fixed pure-Python kernel that touches no beaconphy code runs
next to every timed interval, and times are scaled by the kernel's
reference time over its measured time:

- a single decode call is scaled by the mean of the kernels run just before
  and just after it;
- a workload's throughput is its total frames over its total program time,
  scaled by the mean of the kernels run around each of its rounds.

Of the estimators tried on logged runs (raw median, best decile, per-round
scaling, two-speed classes, fast-spell samples only), these two spread least
across runs.  On an idle machine the scale is close to one.
"""

from __future__ import annotations

import time

clock = time.process_time
KERNEL_LOOPS = 3000
REFERENCE_KERNEL_S = 0.0005            # CPU time of KERNEL_LOOPS loops at the reference speed


def kernel(loops: int = KERNEL_LOOPS) -> float:
    """CPU seconds of a fixed integer and list loop that touches no beaconphy code."""
    x = list(range(16))
    acc = 0
    start = clock()
    for i in range(loops):
        acc ^= x[(i * 7) & 15] << (i & 3)
        x[i & 15] = acc & 15
    return clock() - start


def scale(kernel_s: float, loops: int = KERNEL_LOOPS) -> float:
    """Reference seconds per measured second, given a kernel time of `loops` loops."""
    return REFERENCE_KERNEL_S * loops / KERNEL_LOOPS / kernel_s


def timed(fn):
    """(result, CPU seconds, mean time of the kernels run just before and after)."""
    before = kernel()
    start = clock()
    result = fn()
    elapsed = clock() - start
    return result, elapsed, (before + kernel()) / 2.0
