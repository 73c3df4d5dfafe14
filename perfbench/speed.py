"""Host speed reference, used to report timings at a fixed host speed.

The benchmark runs on shared virtual machines whose speed changes by up to
about 1.8x in phases that last from seconds to minutes: on a two-core KVM
guest the same ``bnb_search`` call took 29 ms in one phase and 55 ms in
the next, with process CPU time equal to wall time.  Repeating the work
or taking medians cannot remove a phase that covers a whole run.

A fixed reference kernel of the same kind of work as ospkit's hot path
(3x3 numpy products driven from Python, and no ospkit code, so no change
to ospkit can move it) is timed next to each unit of timed work.  A time
``t`` measured next to reference time ``r`` is reported as
``t * NOMINAL_S / r``: the time it would take on a host where the kernel
takes NOMINAL_S.  Alternating the two, the ratio of work to kernel time
varied by about 6% while the raw work time varied by about 27%.  The raw
values are printed in the run's details.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 1e-3
BATCH = 15

_A = 1e-3 * np.array([[-10.0, 1.0, 0.0], [-0.02, -2.0, 156.3], [0.0, 0.0, -1000.0]])
_Q = 1e-2 * np.eye(3)


def _kernel() -> None:
    M = np.eye(3)
    for _ in range(100):
        M = _A @ M @ _A.T + _Q
        M = (M + M.T) / 2.0
        float(np.trace(M))


def reference_seconds() -> float:
    """Median time of BATCH calls of the reference kernel."""
    times = []
    for _ in range(BATCH):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two reference times to the
    nominal host speed."""
    return NOMINAL_S / ((before + after) / 2.0)
