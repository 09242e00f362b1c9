"""A fixed calibration kernel that measures the machine's current speed.

A shared machine's speed can drift by 1.5x over seconds to minutes while a
run measures.  The timed loop runs this kernel after every op; dividing an
op's latency by the kernel time measured next to it cancels most of that
drift.  The kernel mixes what the workloads do: interpreted Python, small
numpy products and rational arithmetic.  It uses nothing from blockstep, so
a change to the package cannot move it.
"""

import time
from fractions import Fraction

import numpy as np

# Median kernel time on a shared 2.1 GHz x86-64 core (Python 3.11.7, numpy
# 2.4.6).  It only scales latency/kernel ratios back to seconds.
REF_S = 0.9e-3

_A = np.full((3, 3), 1 / 3)
_V = np.ones((3, 1))


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    acc, frac = 0.0, Fraction(0)
    for k in range(80):
        x = _A @ _V + 0.1 * (_A @ _V)
        acc += float(x[0, 0]) * k % 7
        frac += Fraction(k, k + 3)
    return time.perf_counter() - t0
