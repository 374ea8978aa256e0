"""The reference burst that puts every reported time at a fixed host speed.

The host's speed drifts by up to 2x over minutes, and it does not slow every
kind of work alike: in one slow phase tiny NumPy calls took 2.6x as long,
an interpreter loop 1.7x, passes over L2-resident arrays 1.2x.  So a burst
is four fixed parts of about equal time, the kinds of work ``laxhopf`` and
its set-up spend their time on: an interpreter loop, compiling Python
source, and NumPy calls on 215- and 2000-element arrays (the cost layer's
batch sizes).  Parts that stream over large arrays were tried and left out:
they slowed less than the queries, so a burst with them under-corrected in
slow phases.  bench/README.md gives how closely the burst follows the
queries.

Nothing here uses ``laxhopf``, so no change to the program moves the burst;
it imports only NumPy, so the set-up's import probe can load it before
timing ``import laxhopf`` without sparing that import any module.  Its arrays
are small: a fresh allocation of 160 KB or more is served by mmap or by the
heap depending on what the process freed before (glibc's adaptive
threshold), which moved a burst that made such allocations by 30% between
processes.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.010         # burst time that defines the reported seconds
HALF_WINDOW = 2       # a query's host speed is the mean of the 2 * 2 + 1 bursts around it

_SOURCE = "".join(f"def f{i}(x):\n    y = x * {i} + 1\n    if y > 3:\n        return [y, x]\n"
                  f"    return {{'a': y}}\n" for i in range(60))


def burst() -> float:
    """Seconds the fixed burst takes now (about 9 ms on a quiet host here)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30_000):
        acc += i * i % 7
    compile(_SOURCE, "<reference>", "exec")
    for n, reps in ((215, 380), (2000, 200)):
        s = np.linspace(0.0, 1.0, n)
        for _ in range(reps):
            acc += float((0.5 * s * s + np.minimum(s, 0.3)).sum())
    return time.perf_counter() - t0


def local_speeds(bursts: list) -> list:
    """For each position, the mean burst time over the window around it.

    The mean, not the median: when the process shares its core, a burst is
    stretched by whichever time slices fall inside it, and only the mean
    charges the slices in the same proportion as a query sees them.
    """
    n = len(bursts)
    windows = (bursts[max(0, i - HALF_WINDOW):min(n, i + HALF_WINDOW + 1)] for i in range(n))
    return [sum(w) / len(w) for w in windows]
