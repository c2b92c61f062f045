"""Workload ``paper-suite``: regenerate the paper's evaluation once.

One pass is ``run_suite(use_cache=False)`` at ``BENCH_GEOMETRIES`` plus
the Table 2 / Figure 7 / Figure 8 / Figure 10 / flush-ablation / energy
formatters, as ``examples/paper_tables.py`` does it.  An operation is
one kernel measurement (ten per pass).  Every pass is checked:

* outputs equal the numpy references (``run_suite`` verifies through
  the harness and raises on a mismatch);
* each Figure 7 speedup is within 5% (exact bars) or 15% (approximate
  bars) of the kernel's ``paper_speedup``;
* Figure 8 is strictly ordered per kernel, DC < NCC < CC;
* Figure 10's oracle is no slower than GMA-only or CPU-only;
* each kernel's simulated cycles, instructions, bytes and ATR events
  equal ``reference_stats.json`` (regenerate with
  ``python3 perfbench/regen_reference.py``).
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from hostspeed import HostClock
from outcome import Block, Outcome

REFERENCE = Path(__file__).resolve().parent / "reference_stats.json"
STAT_FIELDS = ("cycles", "instructions", "bytes_read", "bytes_written",
               "atr_events")


def _format_tables(suite, tracer):
    from repro.perf.energy import format_energy_table
    from repro.perf.report import (format_figure7, format_figure8,
                                   format_figure10, format_flush_ablation,
                                   format_table2)
    with tracer.span("perf.report") if tracer else nullcontext():
        return [format_table2(), format_figure7(suite), format_figure8(suite),
                format_figure10(suite),
                format_flush_ablation(suite["LinearFilter"]),
                format_energy_table(suite)]


def check_suite(suite, records, reference) -> list:
    """Every failed check of one pass, as text (empty when correct)."""
    from repro.perf.memory_models import MemoryModel
    problems = []
    stats = {}
    for record in records:
        row = stats.setdefault(record["program"],
                               {name: 0 for name in STAT_FIELDS})
        for name in STAT_FIELDS:
            row[name] += record[name]
    for abbrev, m in suite.items():
        paper = m.kernel.paper_speedup
        tolerance = 0.05 if m.kernel.paper_speedup_exact else 0.15
        if abs(m.speedup - paper) > tolerance * paper:
            problems.append(f"{abbrev}: Figure 7 speedup {m.speedup:.3f}x "
                            f"not within {tolerance:.0%} of {paper}x")
        dc = m.relative_performance(MemoryModel.DATA_COPY)
        ncc = m.relative_performance(MemoryModel.NONCC_SHARED)
        cc = m.relative_performance(MemoryModel.CC_SHARED)
        if not dc < ncc < cc:
            problems.append(f"{abbrev}: Figure 8 not DC < NCC < CC "
                            f"({dc:.4f}, {ncc:.4f}, {cc:.4f})")
        oracle = m.partition("oracle").total_seconds
        gma_only = m.partition("static", 0.0).total_seconds
        if oracle > min(gma_only, m.cpu_seconds) * (1 + 1e-9):
            problems.append(f"{abbrev}: Figure 10 oracle {oracle:.3e}s slower "
                            f"than GMA-only {gma_only:.3e}s or CPU-only "
                            f"{m.cpu_seconds:.3e}s")
        want = reference["kernels"].get(abbrev)
        got = stats.get(abbrev)
        if want is None or got != want:
            problems.append(f"{abbrev}: simulated stats {got} != reference "
                            f"{want}")
    return problems


def run(seed: int, passes: int, tap, tracer=None) -> Outcome:
    """``passes`` full passes; ``tap`` is an installed :class:`DeviceTap`.

    The pass has no set-up of its own beyond the imports: ``run_suite``
    assembles, generates inputs and verifies inside the pass.  A thin
    wrapper around ``study.measure_kernel`` (the function ``run_suite``
    calls per kernel) times each kernel and samples the host clock
    before it; the samples are left out of the pass's wall time.
    """
    import repro.perf.study as study
    reference = json.loads(REFERENCE.read_text())
    clock = HostClock(tracer)
    kernel_walls: list = []
    measure_kernel = study.measure_kernel

    def timed_kernel(*args, **kwargs):
        clock.sample()
        started = time.perf_counter()
        try:
            return measure_kernel(*args, **kwargs)
        finally:
            kernel_walls.append(time.perf_counter() - started)

    outcome = Outcome()
    outcome.setup_samples.append(0.0)
    study.measure_kernel = timed_kernel
    try:
        outcome.t0 = time.perf_counter()
        for _ in range(passes):
            first = len(tap.records)
            kernel_walls.clear()
            samples = len(clock.samples)
            outcome.attempted += 10
            started = time.perf_counter()
            try:
                suite = study.run_suite(seed=seed, use_cache=False)
                tables = _format_tables(suite, tracer)
            except Exception:
                traceback.print_exc()
                outcome.failed += 10
                outcome.blocks.append(Block(time.perf_counter() - started, 0,
                                            [float("inf")]))
                continue
            elapsed = time.perf_counter() - started
            clock.sample()
            taken = clock.samples[samples:]
            wall = elapsed - sum(taken[:-1])
            if len(taken) == 1:  # run_suite no longer calls measure_kernel
                taken *= 2
            scaled = sum(t * clock.scale(a, b) for t, a, b
                         in zip(kernel_walls, taken, taken[1:]))
            scaled += (wall - sum(kernel_walls)) * clock.scale(*taken[-2:])
            outcome.blocks.append(Block(wall, 10, [wall], scaled / wall))
            problems = check_suite(suite, tap.records[first:], reference)
            if len(suite) != 10 or not all(tables):
                problems.append("the pass did not measure ten kernels "
                                "or left a table empty")
            for problem in problems:
                print(f"[perfbench] paper-suite: {problem}", file=sys.stderr)
            outcome.correct = outcome.correct and not problems
        outcome.t1 = time.perf_counter()
    finally:
        study.measure_kernel = measure_kernel
    outcome.host_scale = clock.overall()
    return outcome
