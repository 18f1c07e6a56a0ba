"""Machine-speed calibration.

Speed on a shared host drifts by tens of percent over tens of seconds, the
same for every program on it.  The benchmark therefore reports times at a
reference speed: each raw time is multiplied by REFERENCE_S over the time a
fixed calibration unit took next to it.  A change to protspin cannot move the
calibration unit, which never calls into it.
"""

import statistics
import time

import numpy as np

# The unit's median when run on its own on the reference machine (the
# machine in bench/baseline.json).  Changing it rescales every recorded time.
REFERENCE_S = 3.3e-3

_ARRAY = np.linspace(0.0, 1.0, 4096)


def unit():
    """Time one fixed piece of CPU work: an interpreter loop and small numpy
    operations, the mix the library runs."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    y = _ARRAY
    for _ in range(20):
        y = np.sin(y * 1.0001) + np.cos(y)
    return time.perf_counter() - start


def median_unit():
    """Median of five units: one alone is as noisy as a single job."""
    return statistics.median(unit() for _ in range(5))
