"""What one workload run measured, and the metrics derived from it."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Block:
    """One unit of the timed phase: a paper-suite pass or a serving
    round.  ``latencies`` has one entry per operation sample; a failed
    operation's entry is ``inf`` so it ranks slower than any success.
    ``scale`` turns the block's measured seconds into reference-host
    seconds (:mod:`hostspeed`)."""

    wall: float
    done: int
    latencies: List[float]
    scale: float = 1.0


@dataclass
class Outcome:
    """One run of a workload: operations, timed blocks, checks.

    ``[t0, t1]`` is the timed phase on the ``perf_counter`` clock (the
    traced run's analysis window).
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    blocks: List[Block] = field(default_factory=list)
    setup_samples: List[float] = field(default_factory=list)
    t0: float = 0.0
    t1: float = 0.0
    #: the run's reference-host scale factor, for set-up times
    host_scale: float = 1.0
    #: per-layer serving figures of the serve-* workloads
    serving: Optional[Dict[str, float]] = None

    def block_median(self, of) -> float:
        """Median over the timed blocks of ``of(block)``."""
        return statistics.median(of(block) for block in self.blocks)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); ``inf`` ranks last."""
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process alone (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
