"""Host-speed calibration: a fixed pure-Python loop timed beside every rep.

The box this benchmark runs on shares its cores, and identical code
swings by more than 10% in raw wall time between processes.  A rep's
*calibrated* time divides that swing out::

    calibrated = raw_wall * CAL_REF_S / mean(calibration before, after)

The loop does the kind of work the simulator does (heap push/pop, dict
get/set, small-int arithmetic) and imports nothing from ``repro``, so a
change to the program cannot move it.  One sample is the fastest of
three short runs: a preemption inflates one run, a slower machine
inflates all three.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Callable, Tuple, TypeVar

__all__ = [
    "CAL_REF_S",
    "DRIFT_LIMIT",
    "MAX_RETRIES",
    "calibrated",
    "drifted",
    "sample",
    "steady_rep",
]

#: one :func:`sample` on the build machine (see ``baseline.json``);
#: calibrated seconds are seconds of *that* machine.
CAL_REF_S = 0.0140

#: adjacent samples further apart than this mean the machine changed
#: speed mid-rep; the rep is run again.
DRIFT_LIMIT = 0.15
MAX_RETRIES = 2

_LOOP_N = 40_000
_RUNS = 3

T = TypeVar("T")


def _loop() -> float:
    # The live set stays small (a 64-entry heap, a 1024-entry dict): a
    # loop that allocates in bulk runs measurably slower right after a
    # gc.collect() has handed arenas back, which is when the "before"
    # sample is taken, and that would read as drift.
    push, pop = heapq.heappush, heapq.heappop
    heap = list(range(64))
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    t0 = perf_counter()
    for i in range(_LOOP_N):
        push(heap, (i * 7919) % 1009)
        table[i & 1023] = acc
        acc = (acc + pop(heap) + table[(i >> 2) & 1023]) & 0xFFFF
    return perf_counter() - t0


def sample() -> float:
    """Wall seconds of the calibration loop (fastest of three runs)."""
    return min(_loop() for _ in range(_RUNS))


def calibrated(raw_s: float, cal_before: float, cal_after: float) -> float:
    """``raw_s`` rescaled to the build machine's speed."""
    return raw_s * CAL_REF_S / ((cal_before + cal_after) / 2.0)


def drifted(cal_before: float, cal_after: float) -> bool:
    return abs(cal_after - cal_before) > DRIFT_LIMIT * min(cal_before, cal_after)


def steady_rep(make: Callable[[], T], max_retries: int = MAX_RETRIES) -> Tuple[T, int]:
    """Run ``make`` until the rep it returns has two calibration samples
    (``.cal_before``, ``.cal_after``) that agree.

    Returns the accepted rep and how many were thrown away; after
    ``max_retries`` the last one is kept, so a persistently noisy machine
    still finishes.
    """
    retries = 0
    while True:
        rep = make()
        if retries >= max_retries or not drifted(rep.cal_before, rep.cal_after):
            return rep, retries
        retries += 1
