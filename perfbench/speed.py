"""Rescaling timings to a fixed host speed.

The machine this benchmark was defined on shares its cores with other
machines: pure-Python code runs up to about 1.7 times slower in stretches
that last from a fraction of a second to minutes.  Raw wall times of
unchanged code therefore drift between runs by more than any useful bound.

While a worker runs, a timer signal interrupts it every ``INTERVAL_S``
seconds and times a fixed loop of interpreter work, which takes ``REF_S``
on an uncontended core.  A measured interval is reported as

    (interval - probe time inside it) * REF_S / mean(loop time inside it)

the time the interval would have taken at the speed where the loop takes
``REF_S``.  Code of the program and the loop slow down alike (measured
here: 1.58-1.65 times for the workloads against 1.67 for the loop when the
host is busy), so the product stays put while the host's load changes.
The loop shares no code with the program: at constant host speed, a change
to the program moves a scaled time exactly as much as the raw one.

``REF_S`` was measured on an Intel Xeon, 2 vCPU, Python 3.11.7 guest.  On
another machine scaled times are in that machine's units, so compare runs
from one machine.  Raw times are printed next to the scaled ones.
"""

import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.1
REF_S = 0.0009


def reference_loop(n=1500):
    """Fixed interpreter work: float math and formatting.

    It creates no container objects, so it never triggers the cyclic
    garbage collector, whose cost would depend on the program's heap.
    """
    acc = 0.0
    for i in range(n):
        x = math.sqrt(i + 0.5) * 1.000001
        acc += math.exp(-x * 1e-3) + len(f"{x:.12g}")
    return acc


class SpeedProbe:
    """Samples host speed on SIGALRM; see the module docstring."""

    def __init__(self):
        self.ends = []  # when each sample finished
        self.loops = []  # reference loop time of each sample
        self.busy = []  # time each sample took out of the measured work
        self._previous = None

    def sample(self, *_):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.ends.append(t1)
        self.loops.append(t1 - t0)
        self.busy.append(perf_counter() - t0)

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0, t1):
        """Factor turning the raw length of [t0, t1] into a scaled time.

        Removes the probe's own time inside the interval and rescales the
        rest by the mean loop time of the samples taken in it (the nearest
        sample when none was).
        """
        lo, hi = bisect_left(self.ends, t0), bisect_right(self.ends, t1)
        busy = sum(self.busy[lo:hi])
        if lo == hi:
            lo, hi = (lo - 1, lo) if lo > 0 else (0, 1)
        loops = self.loops[lo:hi]
        return (1.0 - busy / (t1 - t0)) * REF_S * len(loops) / sum(loops)
