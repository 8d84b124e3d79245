"""The machine's current speed, measured alongside the work.

On a shared machine the same code can run up to about 1.6 times slower
or faster from one spell of seconds or minutes to the next, so a wall
time alone does not tell a slower program from a slower machine.  A
`Pacer` runs a fixed reference kernel from a SIGALRM handler every
`INTERVAL_S` seconds while the workload runs, and records when each run of
the kernel started and how long it took.  The kernel touches nothing of
the program under test, and the garbage collector is held off while it
runs.  Dividing a wall time by the kernel's time over the same interval
gives a cost that depends far less on the spell the machine was in;
multiplying by `REFERENCE_S` turns it back into seconds at a fixed speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

# Costs are given in seconds on a machine where one kernel run takes this
# long; on the 2-core machine the benchmark was written on it took 0.4-1 ms.
REFERENCE_S = 0.001
INTERVAL_S = 0.02
WINDOW_S = 0.25  # shorter intervals are paced over this much time around them


def kernel() -> None:
    """Squares a small sparse polynomial held as {exponents: Fraction},
    the kind of work loopsynth spends its time on."""
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}
    square: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in p.items():
        for (d, e), f in p.items():
            key = (a + d, b + e)
            square[key] = square.get(key, 0) + c * f


class Pacer:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, t0: float, t1: float) -> range:
        return range(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))

    def own_time(self, t0: float, t1: float) -> float:
        """Seconds the kernel itself took inside [t0, t1]."""
        return sum(self.ends[i] - self.starts[i] for i in self._between(t0, t1))

    def cost(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1], less the kernel's own time, in seconds at
        the reference speed."""
        work = (t1 - t0) - self.own_time(t0, t1)
        mid, half = (t0 + t1) / 2, max(t1 - t0, WINDOW_S) / 2
        runs = self._between(mid - half, mid + half) or range(len(self.starts))
        kernel_s = sum(self.ends[i] - self.starts[i] for i in runs) / len(runs)
        return work * REFERENCE_S / kernel_s
