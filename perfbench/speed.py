"""Wall times rescaled to a fixed machine speed.

The shared VMs this benchmark runs on switch between a fast speed and
one up to 1.7x slower, for seconds to minutes at a time, so raw wall
times of the same work differ by that much between runs.  ``Clock``
times a small frozen kernel next to every operation, and every
``SAMPLE_S`` during a long one.  The kernel has the shape of mapforge's
inner loops: a per-flag Python BFS over numpy connection arrays.  Each
operation is then reported twice: its wall time, and that time
multiplied by ``REFERENCE_S`` over the mean kernel time, i.e. the wall
time the operation would have taken at the speed where the kernel runs
in ``REFERENCE_S``.  The kernel depends only on this file, so it runs
the same on every commit of mapforge.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

# Kernel time at the fast speed of the VM the benchmark was defined on.
REFERENCE_S = 260e-6
# A calibration older than this is refreshed before the next operation;
# an operation longer than this is also calibrated after it ends.
STALE_S = 0.02
# Interval of the calibrations taken while an operation runs.
SAMPLE_S = 0.1
KERNEL_FLAGS = 256


def _kernel_system(flags: int):
    """Three fixed-point-free involutions on ``flags`` points, fixed by seed."""
    rng = np.random.default_rng(0)
    conns = []
    for _ in range(3):
        order = rng.permutation(flags)
        conn = np.empty(flags, dtype=np.intp)
        conn[order[0::2]] = order[1::2]
        conn[order[1::2]] = order[0::2]
        conns.append(conn)
    return conns


class Clock:
    """Times operations, which may nest.  Calibrations during an operation
    come from SIGALRM, so a process has one Clock, used from the main thread."""

    def __init__(self):
        self._conns = _kernel_system(KERNEL_FLAGS)
        self._factor = 1.0
        self._at = float("-inf")
        # factor lists of the operations being timed, outermost first
        self._active: list[list[float]] = []
        # calibration seconds spent while some operation was being timed
        self._inside = 0.0
        self.wall = 0.0
        self.scaled = 0.0
        self._calibrate()
        signal.signal(signal.SIGALRM, self._sample)

    def _kernel(self) -> float:
        conns = self._conns
        t0 = time.perf_counter()
        colors = np.full(KERNEL_FLAGS, -1, dtype=np.int8)
        colors[0] = 0
        queue = deque([0])
        while queue:
            f = queue.popleft()
            cf = int(colors[f])
            for conn in conns:
                g = int(conn[f])
                if colors[g] < 0:
                    colors[g] = cf ^ 1
                    queue.append(g)
        return time.perf_counter() - t0

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        self._factor = REFERENCE_S / min(self._kernel(), self._kernel())
        self._at = time.perf_counter()
        if self._active:
            self._inside += self._at - t0
            for factors in self._active:
                factors.append(self._factor)
        return self._factor

    def _sample(self, _signum, _frame):
        if self._active:
            self._calibrate()

    def run(self, func, *args):
        """Call ``func``; set ``wall`` and ``scaled`` even when it raises.

        Calibrations taken during the call are not part of ``wall``.
        """
        if time.perf_counter() - self._at > STALE_S:
            self._calibrate()
        factors = [self._factor]
        self._active.append(factors)
        if len(self._active) == 1:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        inside = self._inside
        t0 = time.perf_counter()
        try:
            return func(*args)
        finally:
            wall = time.perf_counter() - t0 - (self._inside - inside)
            self._active.pop()
            if not self._active:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if wall > STALE_S:
                factors.append(self._calibrate())
            self.wall = wall
            self.scaled = wall * statistics.fmean(factors)
