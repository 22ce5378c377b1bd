"""Host-speed calibration kernel.

The benchmark host is shared: over minutes its speed drifts by up to
1.7x, in CPU time as well as wall time, and no hardware counters are
available to count work instead.  Each repetition therefore times this
fixed kernel before its first command and again after any command that
ends at least ``INTERVAL_S`` after the previous kernel (always after the
last one), and reports its times scaled to a nominal host speed::

    calibrated = measured * NOMINAL_S / mean(kernel seconds)

Kernels run between commands, never inside a timed command.  The kernel
mixes the operations the workloads spend their time in: vectorized
bisection on short arrays (quadrature), keyed Philox streams with a sort
(samplers) and small dense solves (TDOA).  It depends only on numpy,
never on the package under test, so a change to the program cannot
move it.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel seconds on the unloaded benchmark host (2-vCPU Intel Xeon,
# numpy 2.4.6, Python 3.11.7), so calibrated times read as seconds on
# that host.  Only the ratio matters: parent and change share it.
NOMINAL_S = 0.10
ROUNDS = 4
INTERVAL_S = 1.0


def kernel_seconds(rounds: int = ROUNDS) -> float:
    """Wall seconds of a fixed amount of numpy work."""
    start = time.perf_counter()
    for _ in range(rounds):
        r = np.linspace(0.05, 3.0, 22)
        for _ in range(60):
            lo, hi = r * 1e-9, r.copy()
            for _ in range(24):
                mid = 0.5 * (lo + hi)
                above = r**-4.0 / (mid**-4.0 + 0.3 * r**-2.0) >= 0.1
                hi = np.where(above, mid, hi)
                lo = np.where(above, lo, mid)
        for i in range(150):
            gen = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(1, spawn_key=(i, 0)))
            )
            x = np.sqrt(gen.random(1000))
            x.sort()
            float(np.sum(x**-4.0))
        m = np.eye(3) + 0.1
        b = np.ones(3)
        for i in range(1500):
            np.linalg.solve(m + i * 1e-6, b)
    return time.perf_counter() - start


def speed_factor(kernel_s: list[float]) -> float:
    """Factor that scales a repetition's times to the nominal host speed."""
    return NOMINAL_S * len(kernel_s) / sum(kernel_s)
