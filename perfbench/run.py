"""One workload of the EXOCHI benchmark, in this fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0

Workloads: ``paper-suite`` (the paper's evaluation), ``serve-burst`` and
``serve-solo`` (the serving path).  ``--seconds`` sets the fixed amount
of work: the number of passes or rounds is derived from it, never from
the clock, so a faster program finishes the same work sooner.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it first runs the same command untraced in a child
process, then the traced run here, and prints the per-layer metrics
plus the tracing overhead; the layer table goes to stderr and the spans
to ``.perfbench/``.  The last line of stdout is always one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("paper-suite", "serve-burst", "serve-solo")
#: ``--seconds`` buys ``round(seconds / this)`` units of work (passes or
#: rounds): at 20, one pass, five serve-burst rounds (640 requests) and
#: six serve-solo rounds (192 requests).
UNIT_SECONDS = {"paper-suite": 35.0, "serve-burst": 4.0, "serve-solo": 3.3}
#: Set-ups per serve run; setup_s reports the median.
SETUPS = 3
#: Fresh interpreters whose import time joins this process's in setup_s.
IMPORT_PROBES = 4
#: Everything a workload imports, timed as part of set-up.
IMPORTS = ("numpy", "repro.perf.study", "repro.perf.report",
           "repro.perf.energy", "repro.serving", "repro.kernels")
IMPORT_PROBE = ("import importlib, time; t = time.perf_counter()\n"
                f"for m in {IMPORTS!r}: importlib.import_module(m)\n"
                "print(time.perf_counter() - t)")


def units(workload: str, seconds: int) -> int:
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def pin_to_one_core() -> None:
    """Keep this process, its threads and its children on one CPU.

    The host gives the benchmark two CPUs of a shared machine, and the
    serving workloads run three threads that take turns on the
    interpreter lock: spread over two CPUs they measured the scheduler
    (serve-burst served a fifth fewer requests per second than on one
    CPU, and its wall_s spread three times as wide).
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_program() -> float:
    """Import the program; seconds since this script started."""
    import importlib
    sys.path.insert(0, str(SRC))
    for module in IMPORTS:
        importlib.import_module(module)
    return time.perf_counter() - _STARTED


def probe_import() -> float:
    """Import time of the program in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(args, setups: int, tracer=None):
    """(outcome, device tap or None) of one run of ``args.workload``."""
    import layers
    count = units(args.workload, args.seconds)
    tap = (layers.DeviceTap() if args.workload == "paper-suite" or tracer
           else None)
    try:
        if tracer is not None:
            layers.install(tracer)
        if args.workload == "paper-suite":
            import paper_suite
            outcome = paper_suite.run(args.seed, count, tap, tracer)
        else:
            import serve_load
            outcome = serve_load.run(args.workload, args.seed, count, setups,
                                     tracer)
    finally:
        if tracer is not None:
            tracer.close()
        if tap is not None:
            tap.close()
    return outcome, tap


def end_to_end(args) -> tuple:
    """(outcome, end-to-end metrics) of one untraced run."""
    from outcome import peak_rss_mib, percentile
    imports = [import_program()]
    imports += [probe_import() for _ in range(IMPORT_PROBES)]
    outcome, _ = run_workload(args, SETUPS)
    median = outcome.block_median
    latencies = [lat * block.scale for block in outcome.blocks
                 for lat in block.latencies]
    setup = (statistics.median(imports)
             + statistics.median(outcome.setup_samples))
    metrics = {
        "setup_s": (setup * outcome.host_scale, "s"),
        "wall_s": (median(lambda b: b.wall * b.scale), "s"),
        "req_per_s": (median(lambda b: b.done / (b.wall * b.scale)), "1/s"),
        "p50_ms": (1e3 * percentile(latencies, 0.50), "ms"),
        "p90_ms": (1e3 * percentile(latencies, 0.90), "ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    return outcome, metrics


def traced(args) -> tuple:
    """Untraced child run, then the traced run in this process."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=170)
    if child.returncode != 0:
        raise SystemExit(f"untraced run exited {child.returncode}")
    baseline = json.loads(child.stdout.strip().splitlines()[-1])
    untraced_wall = baseline["metrics"]["wall_s"]["value"]

    import_program()
    import layers
    from tracer import Tracer, format_layer_table
    tracer = Tracer()
    started = time.perf_counter()
    outcome, tap = run_workload(args, 1, tracer)
    ended = time.perf_counter()
    if (outcome.attempted, outcome.failed) != (baseline["attempted"],
                                               baseline["failed"]):
        print(f"[perfbench] traced run attempted/failed "
              f"{outcome.attempted}/{outcome.failed}, untraced "
              f"{baseline['attempted']}/{baseline['failed']}",
              file=sys.stderr)
        outcome.correct = False
    table = tracer.layer_table(started, ended)
    unattributed = tracer.unattributed_share(outcome.t0, outcome.t1)
    traced_wall = outcome.block_median(lambda b: b.wall * b.scale)
    overhead = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    print(format_layer_table(table, ended - started, unattributed),
          file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", started)
    metrics = layers.per_layer(table, tap.totals(), outcome.serving,
                               overhead, unattributed, outcome.host_scale)
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_core()
    outcome, metrics = traced(args) if args.trace else end_to_end(args)
    bad = [name for name, (value, _) in metrics.items()
           if not math.isfinite(value)]
    if bad:
        print(f"[perfbench] metrics not finite: {bad} (more than a tenth "
              f"of {outcome.attempted} operations failed?)", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
