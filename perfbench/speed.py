"""Host speed, for scaling CPU-bound times to a nominal host.

A shared host's speed changes by up to half within milliseconds and drifts
over minutes, in CPU time as much as in wall time. So a run samples the
fixed pure-Python job below, shaped like the optimizer's work (tuples,
comparisons, dict lookups, floor arithmetic, a sort), between the things it
times, and scales those times by REFERENCE_MS over the job's mean sampled
time: times are reported at the speed at which the job takes REFERENCE_MS.
The job is the benchmark's own code, so a change to the program cannot
speed it up or slow it down; the garbage collector is off while it runs,
so the program's heap does not either.
"""

from __future__ import annotations

import gc
import math
import time

REFERENCE_MS = 3.5
REPS = 5


def _job() -> None:
    pts = [((i * 7919) % 211, (i * 104729) % 199) for i in range(160)]
    ranks = {p: sum(1 for q in pts if q[0] <= p[0] and q[1] <= p[1] and q != p)
             for p in pts}
    residual = 0
    for g in range(10, 70):
        for m, nm in pts[:40]:
            residual += max(0, m - math.floor(0.7 * g)) + max(0, nm - math.floor(0.4 * g))
    sorted(ranks, key=lambda p: (ranks[p], p))


def sample() -> list[float]:
    """Milliseconds of REPS runs of the reference job, now."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            t0 = time.perf_counter()
            _job()
            times.append((time.perf_counter() - t0) * 1e3)
    finally:
        if enabled:
            gc.enable()
    return times


def scale(samples: list[float]) -> float:
    """Factor that turns times measured among ``samples`` into nominal ones."""
    return REFERENCE_MS * len(samples) / sum(samples)
