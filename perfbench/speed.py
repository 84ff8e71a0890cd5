"""The machine's speed, sampled from inside the measured process.

The speed of a small shared VM moves by a quarter or more within seconds and
drifts over minutes, for reasons outside the process: user and system CPU
time move with it, so neither wall nor CPU time of a pass is steady.  A
``Probe`` therefore times a fixed slice of interpreter work (``kernel``) on
a wall-clock timer signal all through a pass, in the same process and with
no thread.  The time the slices take is taken out of the pass time, and the
rest is scaled to the speed at which one slice takes ``KERNEL_REF_S``:

    normalised seconds = (wall seconds - probe seconds) * KERNEL_REF_S / mean slice

A change to the planner cannot change the slice, so normalised seconds move
only with the planner's own work.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import List

KERNEL_STEPS = 4000
# one slice on the 2-vCPU x86_64 VM the baselines were measured on, in its
# faster periods; it only sets the unit, both sides of a comparison share it
KERNEL_REF_S = 0.0015
PROBE_INTERVAL_S = 0.05


def kernel() -> float:
    """Seconds taken by one fixed slice of dict, set, tuple and list work.

    The garbage collector is off during the slice: a collection it set off
    would walk the planner's heap and time the heap, not the machine.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _slice()
    finally:
        if collecting:
            gc.enable()


def _slice() -> float:
    started = time.perf_counter()
    table: dict = {}
    seen: set = set()
    items: list = []
    for i in range(KERNEL_STEPS):
        key = (i & 127, i % 7)
        table[key] = table.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
            items.append(key)
    items.sort()
    return time.perf_counter() - started


class Probe:
    """Runs ``kernel`` every ``PROBE_INTERVAL_S`` of wall time while started."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, _signum, _frame):
        if self._busy:  # a late signal while a slice still runs
            return
        self._busy = True
        started = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - started
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        if not self.samples:
            self.samples.append(kernel())
        return scale(self.samples)


def scale(slices: List[float]) -> float:
    """Factor from seconds at the speed the slices show to normalised seconds."""
    return KERNEL_REF_S / (sum(slices) / len(slices))
