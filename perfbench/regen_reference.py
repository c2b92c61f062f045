"""Regenerate ``reference_stats.json`` from the scalar oracle.

Runs every Table 2 kernel once at ``BENCH_GEOMETRIES`` on
``GmaDevice(engine="scalar")`` (the reference interpreter), frame 0 and
seed 0 as ``run_suite`` measures it, and records the simulated cycles,
instructions, bytes and ATR events that the ``paper-suite`` workload
must reproduce on whatever engine ``GmaDevice`` defaults to.  The
figures do not depend on the input seed (the kernels' control flow does
not depend on pixel values).

Usage (from the repository root)::

    python3 perfbench/regen_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> None:
    from repro.gma.device import GmaDevice
    from repro.kernels import ALL_KERNELS, run_kernel_on_gma
    from repro.memory import AddressSpace
    from repro.perf.study import BENCH_GEOMETRIES

    kernels = {}
    for cls in ALL_KERNELS:
        kernel = cls()
        space = AddressSpace()
        result = run_kernel_on_gma(
            kernel, BENCH_GEOMETRIES[kernel.abbrev],
            device=GmaDevice(space, engine="scalar"), space=space,
            seed=0, max_frames=1)
        kernels[kernel.abbrev] = {
            "cycles": result.gma_cycles,
            "instructions": result.instructions,
            "bytes_read": result.bytes_read,
            "bytes_written": result.bytes_written,
            "atr_events": result.atr_events,
        }
        print(kernel.abbrev, kernels[kernel.abbrev], file=sys.stderr)
    reference = {
        "source": "GmaDevice(engine='scalar'), BENCH_GEOMETRIES, frame 0",
        "kernels": kernels,
    }
    path = HERE / "reference_stats.json"
    path.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
