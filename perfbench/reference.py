"""The host's current speed, read from a fixed task that uses no planeforest code.

On a shared 2-vCPU Xeon VM the same planeforest call ran up to a third
faster or slower from one minute to the next, in CPU time as in wall time.
Timing this task next to each measured call and scaling a run's total
time by ``REFERENCE_S`` over the task's mean time takes most of that drift
out of the end-to-end times; a change to planeforest cannot move the task
itself.
"""

from __future__ import annotations

import time

import numpy as np

# The task's usual time on a 2-vCPU Xeon VM at 2.1 GHz; scaled times read as
# times on that host.
REFERENCE_S = 0.011


def _task() -> dict:
    # Both kinds of work the workloads do: numpy passes over an array, and
    # small Python objects built one by one.
    perm = np.random.default_rng(0).permutation(200_000)
    np.cumsum(perm - 1)
    return {i: (i, i + 1) for i in range(30_000)}


def reference_s() -> float:
    """Least of five timings of the task, in seconds; the least drops the
    slower first runs in a fresh process."""
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        _task()
        best = min(best, time.perf_counter() - t)
    return best


def scaled(seconds: float, ref: float) -> float:
    """``seconds`` measured while the task took ``ref`` on average, as on the
    reference host."""
    return seconds * REFERENCE_S / ref
