"""Host-speed calibration: report times as seconds on a reference host.

The benchmark's host changes speed by up to 2x within an hour, and by
up to 1.5x between samples seconds apart, far more than the bound a
regression check can afford.  The paper-suite therefore times a fixed
reference loop before each kernel measurement and after the pass, and
scales each kernel's time by ``REFERENCE_SECONDS`` over the mean of the
two loops around it.  The serving workloads time two loops at each
round boundary (the server idle) and scale each round by the mean of
the four loops around it.  A program change does not move the loop, so
it moves the scaled times as it moves the raw ones; a host that is 20%
slower for a while moves both.

The traced run reports the raw-to-scaled ratio as ``host.speed``.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Duration of :func:`reference_loop` on the reference host (the median
#: of 40 calls on the 2-core host of the README's reference figures).
REFERENCE_SECONDS = 0.12
_ITERATIONS = 20_000


def reference_loop() -> None:
    """Fixed work in the simulator's mix, sharing none of its code:
    interpreted control flow, dict and list traffic, and small-array
    numpy operations on a register-file-like list of vectors."""
    regs = [np.arange(16, dtype=np.float64) for _ in range(32)]
    table = {}
    for i in range(_ITERATIONS):
        src = regs[i & 31]
        regs[(i + 1) & 31] = np.clip(src + 1.0, 0.0, 255.0)
        table[i & 255] = (i, src.shape)
        [j * 2 for j in range(8)]


class HostClock:
    """Samples of the reference loop taken during one run."""

    def __init__(self, tracer=None):
        self.samples: List[float] = []
        self._tracer = tracer

    def sample(self, loops: int = 1) -> None:
        """Time ``loops`` reference loops, one sample each (one
        ``host.calibrate`` span if traced)."""
        if self._tracer is not None:
            with self._tracer.span("host.calibrate"):
                self._time_loops(loops)
        else:
            self._time_loops(loops)

    def _time_loops(self, loops: int) -> None:
        for _ in range(loops):
            started = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - started)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns seconds measured between two samples into
        reference-host seconds."""
        return 2.0 * REFERENCE_SECONDS / (before + after)

    def overall(self) -> float:
        """The run's scale factor: reference over the median sample."""
        return REFERENCE_SECONDS / statistics.median(self.samples)
