"""The machine's speed, measured next to the operations it scales.

On a shared machine the other tenants slow this process by 20-40 % in
phases lasting seconds to minutes; CPU time grows with wall time, so the
phases are not preemption, and they outlast a run.  `block` times a fixed
mix of the kinds of work duplexem does: pure-Python arithmetic, scipy
`quad` with a Python integrand, numpy array arithmetic and CSV formatting.
This code belongs to the benchmark and does not change with the program,
so `scale(before, after)` -- REFERENCE_S over the mean of the blocks run
just before and after some operations -- converts their wall time to the
time they would take at the machine's reference speed.
"""

from __future__ import annotations

import csv
import io
import math
import time

import numpy as np
from scipy import integrate

# median of block() on the reference machine (2 cores, Python 3.11,
# numpy 2.4, scipy 1.17) while nothing else of the benchmark ran
REFERENCE_S = 0.0163


def block() -> float:
    """Wall time of the fixed calibration work, ~5 ms per kind at reference speed."""
    began = time.perf_counter()
    total, seen = 0, {}
    for i in range(27000):
        total += i * i % 7
        seen[i & 255] = total
    for j in range(120):
        m = 0.95 - 0.0075 * j
        integrate.quad(lambda y: math.sin(y) ** 2 / math.sqrt(1.0 - m * math.sin(y) ** 2),
                       0.0, 0.5 * math.pi, epsabs=1e-12, epsrel=1e-12, limit=200)
    arr = np.linspace(0.0, 1.0, 1000)
    for _ in range(140):
        arr = np.sin(arr) + 0.5 * np.cos(arr)
    writer = csv.writer(io.StringIO())
    for i in range(440):
        writer.writerow([f"{i * 0.1234567:.17g}"] * 8)
    return time.perf_counter() - began


def scale(before: float, after: float) -> float:
    return 2.0 * REFERENCE_S / (before + after)
