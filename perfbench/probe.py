"""Host-speed probes: fixed work, independent of mollilab, timed next to
every op and every set-up.

On a shared 2-core host the same op runs up to 1.8x slower for tens of
seconds at a time, and a 14-second run sits inside one such phase, so raw
per-run medians of ten runs spread by 10-40 %.  The time of `Probe`, a
NumPy and Python workload run in the worker, follows those phases
(correlation 0.6-0.8 with the op times of all four workloads), and
dividing each op time by the probe time measured around it removes most
of the phase.  Op times are reported as `wall * REF_S / probe`, i.e. in
seconds of a host running the probe in REF_S.

Set-up (starting a worker and importing mollilab) is process start-up and
import work, which `Probe` tracks less well.  For it, `spawn_probe` times
a Python interpreter that only imports numpy, and set-up times are
reported as `wall * REF_SPAWN_S / spawn probe`.  Neither probe touches
mollilab, so a change to the program cannot move them.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REF_S = 0.08        # Probe.measure() on the uncontended 2-core reference host
REF_SPAWN_S = 0.13  # spawn_probe() on the same host, in the same state


def spawn_probe(timeout: float) -> float:
    """Seconds to start a Python interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=timeout)
    return time.perf_counter() - start


class Probe:
    """Cache-sized array kernels, small-array calls and a pure-Python loop,
    the mix of work the labcli experiments do.

    Every array the probe uses (about 3.4 MB) is allocated here, and
    `measure` writes only into them, so a worker's peak RSS carries a
    constant few MB of probe and never a probe-sized peak of its own."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._block = rng.random((32, 32, 32, 6))
        self._dot = np.empty(self._block.shape[:-1])
        self._diff = np.empty((31, 32, 32, 6))
        self._vec = rng.random(30_000)
        self._sorted = np.empty_like(self._vec)
        self._small = [rng.random((9, 9)) for _ in range(64)]
        self._rows = np.empty((8, 9))
        self.measure()  # fault in the arrays and warm the code paths

    def measure(self) -> float:
        block, rows = self._block, self._rows
        start = time.perf_counter()
        for _ in range(10):
            np.einsum("...i,...i->...", block, block, out=self._dot)
            np.subtract(block[1:], block[:-1], out=self._diff)
        for _ in range(300):
            self._sorted[:] = self._vec
            self._sorted.sort()
        acc = 0.0
        for _ in range(60):
            for a in self._small:
                np.subtract(a[1:], a[:-1], out=rows)
                np.abs(rows, out=rows)
                acc += float(rows.max())
        x = 0
        for i in range(200_000):
            x += i * i
        return time.perf_counter() - start
