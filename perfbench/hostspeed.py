"""Host speed: a fixed CPU kernel that shares no code with lossq.

On a shared VM the host's speed drifts by 15-25% over seconds to minutes,
and it moves this kernel and the program alike.  The benchmark times the
kernel between operations (on the same CPU) and before each set-up spawn,
and reports times at the reference speed: each operation's wall and CPU
time are divided by (median of the five nearest kernel times) /
REFERENCE_S, set-up times by the same ratio for the set-up kernels, and
the traced run's times by the run's median.  Raw times and the factors
are kept in each run's full record.
"""

import time

import numpy as np

# median kernel time on the host the nominal figures were taken on
# (2-vCPU Intel Xeon VM, Python 3.11, NumPy 2.4)
REFERENCE_S = 0.0155

_DATA = np.random.default_rng(0).random(100_000)
_TEXT = "\n".join(map(repr, _DATA[:10_000].tolist()))


def kernel_s() -> float:
    """Seconds for one pass of an interpreter loop, a parse of 10,000
    decimal lines and a NumPy sort: the three kinds of work the operations
    spend their time in."""
    start = time.perf_counter()
    total = 0
    for i in range(80_000):
        total += i * i % 7
    [float(line) for line in _TEXT.splitlines()]
    np.sort(_DATA)
    return time.perf_counter() - start
