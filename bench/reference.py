"""Reference kernel that scales task times for the speed of a shared host.

On a shared host the same task runs up to 60 % slower from one second to the
next.  The kernel uses the standard library only, never ``cmgrass``, so a
change to the package moves task times and leaves the kernel alone.  Of the
stdlib kernels tried on the workloads' tasks, a dict-and-sort kernel with a
JSON one tracked the slowdowns best.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from time import perf_counter

# reference_s() on a shared 2-vCPU Xeon VM at 2.0 GHz with Python 3.11
NOMINAL_S = 0.00066


def _dict_sort():
    d = {}
    for i in range(3000):
        d[i] = (i * 7919) % 1000003
    return sum(sorted(d.values())[::7])


def _json_text():
    rows = [{"re": str(Fraction(i, 7)), "im": [i, i * 2.5, None]}
            for i in range(300)]
    return len(json.loads(json.dumps(rows)))


def reference_s() -> float:
    """Geometric mean over the two kernels of the best of two runs each."""
    logs = []
    for kernel in (_dict_sort, _json_text):
        best = math.inf
        for _ in range(2):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
        logs.append(math.log(best))
    return math.exp(sum(logs) / len(logs))


def normalized(seconds: float, before: float, after: float) -> float:
    """``seconds`` as read on a host where reference_s() takes NOMINAL_S."""
    return seconds * NOMINAL_S * 2 / (before + after)
