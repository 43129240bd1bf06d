"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x over seconds, as neighbours come and go.  Timing this kernel right
after every op and dividing the op's time by it gives a latency in
reference units that does not drift with the machine: on an idle
2-vCPU Xeon VM one kernel call takes about 1 ms, so one `ref_ms` is
about one millisecond there.

The kernel mixes what the tpt ops spend their time on: small float64
matrix products and element-wise numpy calls, and Python object churn.
It must never change, or reference units change with it.
"""

from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(16, 32))
_B = _RNG.normal(size=(32, 32))
ITERATIONS = 170


class _Cell:
    __slots__ = ("value", "total")


def reference_ms():
    """Run the kernel once; return its wall time in milliseconds."""
    t0 = perf_counter()
    cells = []
    for _ in range(ITERATIONS):
        cell = _Cell()
        cell.value = np.tanh(_A @ _B)
        cell.total = cell.value.sum()
        cells.append(cell)
    return (perf_counter() - t0) * 1e3


def smoothed(refs, half_width=1):
    """Per op, the median reference time over the ops around it."""
    out = []
    for i in range(len(refs)):
        window = sorted(refs[max(0, i - half_width):i + half_width + 1])
        out.append(window[len(window) // 2])
    return out
