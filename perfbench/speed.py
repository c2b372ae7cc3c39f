"""Wall times scaled to a quiet machine's speed.

The machines this benchmark runs on are shared: the same Python code runs up
to 1.5x slower for stretches of seconds to minutes, in every process and on
either CPU, and a whole 25 s run can fall into such a stretch. A fixed
reference kernel is timed every ``EVERY_S`` seconds between operations; each
wall time ``t`` is reported as ``t * REFERENCE_MS / kernel``, where
``kernel`` is the reference time measured just before it and
``REFERENCE_MS`` the kernel's time on a quiet machine. The kernel uses the
same kind of work as treeq's hot paths (tuples, dicts, frozensets and set
comprehensions), so it slows down by about as much as they do, and the
scaled times stay put while the wall times move. On a machine as fast as
the reference one and quiet, scaled and wall times agree; on another
machine the scaled times are those of the reference machine.

What the scaling cannot tell apart from a slow machine is the measured
process slowing down its own kernel, for instance by a thread of its own
that runs between operations.
"""

from __future__ import annotations

import time

EVERY_S = 0.05  # at most one reference kernel per 50 ms of operations
#: the kernel's best time on a quiet 2-vCPU 2.1 GHz Xeon VM with Python 3.11
REFERENCE_MS = 3.3


def reference_kernel() -> int:
    """Fixed pure-Python work, ``REFERENCE_MS`` long on the reference machine."""
    table = {}
    for i in range(6000):
        table[(i, i % 97)] = str(i)
    rows = frozenset(table.items())
    return len({row for row in rows if row[0][1] < 50})


class SpeedClock:
    """Times calls, each paired with the reference time measured before it."""

    def __init__(self) -> None:
        self.kernel_ms: list[float] = []
        self._last = float("-inf")

    def calibrate(self) -> int:
        """Times the kernel unless it ran less than ``EVERY_S`` ago; returns the index to pair with."""
        if time.perf_counter() - self._last >= EVERY_S:
            t0 = time.perf_counter()
            reference_kernel()
            self._last = time.perf_counter()
            self.kernel_ms.append((self._last - t0) * 1000)
        return len(self.kernel_ms) - 1

    def call(self, fn, *args) -> tuple[float, int, object]:
        """(wall ms, reference index, fn's value) of one call."""
        k = self.calibrate()
        t0 = time.perf_counter()
        value = fn(*args)
        return (time.perf_counter() - t0) * 1000, k, value

    def scaled(self, ms: float, k: int) -> float:
        """``ms`` timed after reference ``k``, at the reference machine's quiet speed."""
        return ms * REFERENCE_MS / self.kernel_ms[k]
