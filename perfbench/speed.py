"""Host speed sampled during a timed region, to time work at a fixed speed.

On a shared host the same code runs at two speeds about 1.8x apart,
switching within seconds and staying slow for up to minutes at a time, so
the wall time of a fixed round of work drifts by a quarter from one run to
the next.  ``Region`` samples the speed while the work runs: every
``INTERVAL`` seconds of wall time SIGALRM makes the main thread run a fixed
reference loop twice and records how long the second, warm run took.  The
work's time at reference speed is then

    (wall - time spent in the samples) * mean(REFERENCE_S / sample)

which counts each stretch of wall time by how fast the CPU ran in it, in
seconds of a CPU that runs the loop in ``REFERENCE_S``.  The handler runs
in the main thread between bytecodes (no extra thread or process); its own
time is taken out of the wall time.  A program change that slows the work
raises the result by as much as it raises the wall time, because the
reference loop does not run program code.  Two limits: a signal waits for a
running C call such as a numpy kernel to return, so long C calls are
sampled less often than interpreted code; and a change that makes the
program busy the second CPU or the memory bus could slow the samples as
well as the work, so compare the plain wall times too in that case.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.01             # seconds of wall time between samples
REFERENCE_S = 30e-6         # the loop's time on the reference CPU (a 2-vCPU Xeon at its fast speed)


def reference_loop():
    table = {}
    for i in range(300):
        key = i & 31
        table[key] = table.get(key, 0) + i
    return table


def sample():
    """Time of one warm run of the reference loop, in seconds."""
    reference_loop()
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class Region:
    """Samples the host speed while a block runs; ``at_reference(wall)``
    converts the block's wall time to seconds at reference speed."""

    active = None           # the region whose block is running

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    @staticmethod
    def _on_alarm(_signum, _frame):
        region = Region.active
        if region is None:          # an alarm that arrived as the last region ended
            return
        start = time.perf_counter()
        region.samples.append(sample())
        region.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.spent = [sample()], 0.0
        Region.active = self
        signal.signal(signal.SIGALRM, Region._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        Region.active = None
        self.samples.append(sample())
        return False

    def net(self, wall):
        """``wall`` less the time spent in samples."""
        return wall - self.spent

    def at_reference(self, wall):
        speed = sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
        return self.net(wall) * speed
