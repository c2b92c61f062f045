"""The program's layer boundaries, as the traced run hooks them.

:func:`install` hooks every entry point named in the benchmark README
(spans) and taps :meth:`GmaDevice.run` for the simulated counters of
each :class:`~repro.gma.firmware.GmaRunResult`.  :func:`per_layer`
turns the spans and counters into the ``per_layer`` metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
from typing import Dict, List, Optional

from tracer import Tracer

#: (module, class or None, attribute, span name, request ids of the call)
HOOKS = (
    ("repro.gma.device", "GmaDevice", "run", "gma.device_run", None),
    ("repro.gma.firmware", None, "simulate_device", "gma.timing", None),
    ("repro.gma.firmware", None, "run_gang", "gma.gang", None),
    ("repro.gma.gang", None, "_replay_charges", "gma.replay", None),
    ("repro.gma.interpreter", "ShredInterpreter", "run", "gma.scalar", None),
    ("repro.exo.exoskeleton", "Exoskeleton", "request_atr_batch", "exo.atr",
     None),
    ("repro.kernels.harness", None, "schedule_kernel_program",
     "isa.assemble", None),
    ("repro.memory.surface", "Surface", "upload", "memory.upload", None),
    ("repro.memory.surface", "Surface", "download", "memory.download", None),
    ("repro.serving.admission", "AdmissionController", "pick",
     "serving.pick", None),
    ("repro.serving.admission", "AdmissionController", "pop_batch",
     "serving.pop_batch", None),
    ("repro.serving.server", None, "demux", "serving.demux",
     lambda args, kwargs: tuple(r.ident for r in args[0])),
    ("repro.serving.server", "ExoServer", "_drain", "serving.drain",
     lambda args, kwargs: tuple(r.ident for r in args[4])),
)

#: Kernel methods hooked on every Table 2 kernel class.
KERNEL_HOOKS = (
    ("make_frame_inputs", "kernels.inputs"),
    ("reference_frame", "kernels.reference"),
    ("compare", "kernels.compare"),
)

#: GmaRunResult counters summed over every device run.
RUN_COUNTERS = ("instructions", "bytes_read", "bytes_written", "atr_events",
                "gang_lanes_retired", "scalar_fallbacks", "megaops_retired",
                "megaop_deopts", "predecode_misses")


class DeviceTap:
    """Records the counters of every completed ``GmaDevice.run``.

    One record per run: the program name of its first shred, the
    simulated cycles, :data:`RUN_COUNTERS` and the TLB misses the run's
    device view took.  Records are appended from drain threads too;
    ``list.append`` is atomic under the interpreter lock.
    """

    def __init__(self) -> None:
        from repro.gma.device import GmaDevice
        self.records: List[dict] = []
        self._owner = GmaDevice
        self._original = GmaDevice.__dict__["run"]
        original = self._original
        records = self.records

        @functools.wraps(original)
        def tapped(device, *args, **kwargs):
            tlb = device.view.tlb
            misses = tlb.misses
            result = original(device, *args, **kwargs)
            record = {name: getattr(result, name, 0) for name in RUN_COUNTERS}
            record["program"] = (result.runs[0].shred.program.name
                                 if result.runs else "")
            record["cycles"] = result.cycles
            record["tlb_misses"] = tlb.misses - misses
            records.append(record)
            return result

        GmaDevice.run = tapped

    def close(self) -> None:
        self._owner.run = self._original

    def totals(self) -> Dict[str, float]:
        out = {name: 0 for name in RUN_COUNTERS + ("tlb_misses",)}
        for record in self.records:
            for name in out:
                out[name] += record[name]
        return out


def install(tracer: Tracer) -> None:
    """Hook every layer entry point (after the device tap, so the
    ``gma.device_run`` span covers the tap's bookkeeping too)."""
    from repro.kernels import ALL_KERNELS
    for module, owner, attr, name, request_of in HOOKS:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        tracer.hook(target, attr, name, request_of)
    for cls in ALL_KERNELS:
        for attr, name in KERNEL_HOOKS:
            tracer.hook(cls, attr, name)


def per_layer(table: Dict[str, dict], counters: Dict[str, float],
              serving: Optional[Dict[str, float]], overhead_pct: float,
              unattributed: float, host_scale: float) -> Dict[str, tuple]:
    """``{metric: (value, unit)}`` for every ``per_layer`` metric; times
    are in reference-host seconds (``host_scale``, see :mod:`hostspeed`)."""
    def busy(*names):
        return host_scale * sum(table.get(n, {}).get("busy_s", 0.0)
                                for n in names)

    instructions = counters["instructions"]
    functional = max(busy("gma.device_run") - busy("gma.timing"), 0.0)
    serving = serving or {}
    return {
        "gma.functional_s": (functional, "s"),
        "gma.scalar_s": (busy("gma.scalar"), "s"),
        "gma.gang_s": (busy("gma.gang"), "s"),
        "gma.replay_s": (busy("gma.replay"), "s"),
        "gma.timing_s": (busy("gma.timing"), "s"),
        "gma.ns_per_instr": (1e9 * functional / instructions
                             if instructions else 0.0, "ns"),
        "gma.instructions": (instructions, "count"),
        "gma.bytes_total": (counters["bytes_read"] + counters["bytes_written"],
                            "bytes"),
        "gma.gang_residency_pct": (100.0 * counters["gang_lanes_retired"]
                                   / instructions if instructions else 0.0,
                                   "%"),
        "gma.scalar_fallbacks": (counters["scalar_fallbacks"], "count"),
        "gma.megaops_retired": (counters["megaops_retired"], "count"),
        "gma.megaop_deopts": (counters["megaop_deopts"], "count"),
        "isa.assemble_s": (busy("isa.assemble"), "s"),
        "isa.predecode_misses": (counters["predecode_misses"], "count"),
        "kernels.inputs_s": (busy("kernels.inputs"), "s"),
        "kernels.reference_s": (busy("kernels.reference", "kernels.compare"),
                                "s"),
        "memory.surface_io_s": (busy("memory.upload", "memory.download"),
                                "s"),
        "memory.tlb_misses": (counters["tlb_misses"], "count"),
        "exo.atr_s": (busy("exo.atr"), "s"),
        "exo.atr_events": (counters["atr_events"], "count"),
        "serving.queue_wait_ms": (host_scale
                                  * serving.get("queue_wait_ms", 0.0), "ms"),
        "serving.drain_ms": (host_scale * serving.get("drain_ms", 0.0), "ms"),
        "serving.batches": (serving.get("batches", 0), "count"),
        "serving.requests_per_batch": (serving.get("requests_per_batch", 0.0),
                                       "req/batch"),
        "serving.control_s": (busy("serving.pick", "serving.pop_batch",
                                   "serving.demux"), "s"),
        "perf.report_s": (busy("perf.report"), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.unattributed_pct": (100.0 * unattributed, "%"),
        "host.speed": (host_scale, "x"),
    }
