"""Reference kernel that tracks the speed of a shared machine.

On a shared box the speed a process gets drifts by up to about 1.8x
over tens of seconds, which swamps any wall-clock figure taken in one
run.  The runner times this fixed kernel between ops and scales
each op's latency and CPU time by REF_NOMINAL_S over the kernel's mean
time just before and just after the op, so that figures read as on the
machine at its nominal speed.  Set-up time is scaled the same way by the
kernel timed right after set-up.  With the same seed, this cut the
quartile spread of relax throughput across runs from 0.14 to 0.03 on a
2-core shared box.

The kernel does not call twinstripe, so no change to the package moves
it.  It mixes elementwise numpy on a 4096 x 8 complex array, small-array
calls and a Python loop, about the mix the ops run, and makes no BLAS
call, so BLAS thread settings do not change it either.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on an idle 2-core box (Python 3.11, numpy 2.4):
# the tenth percentile of 100 calls.
REF_NOMINAL_S = 0.035

_MODES = np.arange(1, 4097, dtype=float)
_CORNERS = np.linspace(0.05, 0.95, 8)
_POINTS = np.linspace(0.0, 1.0, 64)


def reference_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(12):
        acc += float(np.abs(np.exp(-1j * np.multiply.outer(_MODES, _CORNERS))).sum())
        for _ in range(20):
            acc += float(np.unique(np.concatenate((_CORNERS, _POINTS))).sum())
            acc += float(np.searchsorted(_CORNERS, _POINTS).sum())
    n = 0
    for i in range(100_000):
        n += i % 7
    elapsed = time.perf_counter() - t0
    if not (acc > 0.0 and n > 0):  # keeps the work observable
        raise RuntimeError("reference kernel produced no result")
    return elapsed
