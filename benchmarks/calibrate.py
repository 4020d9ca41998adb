"""Machine-speed calibration for timings taken on a shared machine.

On a shared host the CPU speed one process gets drifts, by up to 2x over
tens of seconds, with the load of its neighbours.  Back-to-back runs of
the same seed then differ far more than any change worth measuring.  The
runner therefore times fixed kernels right before and right after every
op and rescales the op's wall time to a reference speed:

    scaled = wall / mean(slowness before, slowness after)
    slowness = (1 - w) * python_kernel / PY_REF_S + w * numpy_kernel / NP_REF_S

``w`` is the workload's share of numpy-bound work (workloads.NUMPY_SHARE):
contention slows interpreted code and vectorised numpy code by different
amounts.  The reference times are constants (each kernel's time on an
unloaded core of a 2-core x86-64 VM), so they only fix the unit: on
such a core, scaled time is wall time.  The kernels do the kind of work
the program does (fraction-free integer elimination, Fraction sums, dict
churn; Gaussian draws against a few halfspaces) and use no polyface code,
so no change to the program moves them.
"""
from __future__ import annotations

import time
from fractions import Fraction

PY_REF_S = 0.010
NP_REF_S = 0.005


def _python_kernel() -> int:
    acc = 0
    for rep in range(200):
        n = 6
        m = [[(i * 7 + j * 13 + rep) % 17 - 8 for j in range(n)] for i in range(n)]
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                m[k][k] = 1
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        acc += sum(Fraction(x, 3 + rep) for x in m[-1]).numerator
        seen = {(i, rep): (i, i * i) for i in range(60)}
        acc += len(seen)
    return acc


def _numpy_kernel() -> int:
    import numpy as np  # not at module import: setup probes time that import

    rng = np.random.Generator(np.random.PCG64(12345))
    normals = rng.standard_normal((6, 4))
    hits = 0
    for _ in range(6):
        z = rng.standard_normal((8000, 4))
        hits += int((z @ normals.T <= 0.0).all(axis=1).sum())
    return hits


def _seconds(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowness(numpy_share: float = 0.0) -> float:
    """This moment's slowness against the reference core (1.0 = as fast)."""
    value = 0.0
    if numpy_share < 1.0:
        value += (1.0 - numpy_share) * _seconds(_python_kernel) / PY_REF_S
    if numpy_share > 0.0:
        value += numpy_share * _seconds(_numpy_kernel) / NP_REF_S
    return value


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` rescaled to the reference speed, from the slowness measured
    just before and just after it."""
    return wall / ((before + after) / 2)
