"""Host speed calibration.

The benchmark shares a few cores of a host whose speed drifts by a quarter
or more over minutes (other tenants, frequency changes), so raw op times of
two runs of the same code disagree by more than any useful bound. Between
ops the worker times three fixed kernels that do not touch the program:
complex scalar arithmetic in the interpreter, numpy on short arrays (the
tracer's step pattern) and numpy on long arrays. `sample()` returns their
mean time relative to REFERENCE_S, so 1.0 is the reference speed and 1.2 a
host 20% slower. An op's time divided by the speed measured next to it is
its time at the reference speed; those are the benchmark's end-to-end times.
The kernels are the benchmark's own code, so a change to the program moves
the op times and not the speed samples.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel times at the reference speed: their medians on a 2-core x86-64
# container (Python 3, numpy, one BLAS thread). Only their ratios to the
# samples matter; the values keep normalized times near wall seconds.
REFERENCE_S = (1.3e-3, 1.9e-3, 4.4e-3)


def _scalar() -> None:
    z, s = 0.3 + 0.1j, 0.0
    for _ in range(6000):
        z = z * z * 0.5 + 0.1j
        s += abs(z)


def _short_arrays() -> None:
    a = np.linspace(0.0, 1.0, 64) + 0.5j
    for _ in range(300):
        a = np.sqrt(a * a + 0.25) * 0.9


def _long_arrays() -> None:
    a = np.linspace(0.0, 1.0, 20000)
    for _ in range(20):
        a = np.sin(a) + 0.1


KERNELS = (_scalar, _short_arrays, _long_arrays)


def sample() -> float:
    """One speed sample: mean kernel time over its reference (about 8 ms)."""
    ratios = []
    for kernel, ref in zip(KERNELS, REFERENCE_S):
        t0 = time.perf_counter()
        kernel()
        ratios.append((time.perf_counter() - t0) / ref)
    return sum(ratios) / len(ratios)


def around(samples: list, i: int) -> float:
    """Speed for the op run between samples[i] and samples[i + 1]: the
    median of the two samples on each side of it."""
    return statistics.median(samples[max(i - 1, 0):i + 3])
