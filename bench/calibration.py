"""Host speed calibration.

On a shared virtual machine the CPU's speed changes by tens of percent
from minute to minute, while the program does the same work.  The
benchmark therefore runs this fixed pure-Python kernel (big-integer
arithmetic and dict stores, like the program's own mix) at regular
intervals in the same process as the measured work, and divides each
interval's times by the kernel's slowdown against REFERENCE_NS.  Reported
times are thus seconds at the reference speed; the raw wall-clock figures
are kept beside them in the run's result file.
"""

from time import perf_counter_ns

# About the median kernel time on the development machine (2 vCPU Intel
# Xeon at 2.0 GHz, Python 3.11.7); it sets the unit, not the spread.
REFERENCE_NS = 2_400_000


def kernel() -> int:
    x = 0x1234567890ABCDEF1234567
    m = (1 << 89) - 1
    d = {}
    for i in range(7000):
        x = (x * x + i) % m
        d[i & 63] = x
    return x


def measure() -> int:
    """Nanoseconds one kernel run takes now."""
    start = perf_counter_ns()
    kernel()
    return perf_counter_ns() - start
