"""Workloads ``serve-burst`` and ``serve-solo``: four tenants, one server.

One default :class:`~repro.serving.ExoServer` serves four tenant
sessions with fair-share weights 1, 2, 1, 2 (the only option the
benchmark sets).  The tenants are coroutines on the benchmark's event
loop, each a closed loop over a fixed, seeded sequence of bursts: it
uploads a burst's inputs, submits every launch of the burst at once,
awaits them all, downloads the outputs and frees the surfaces, then
sends the next burst.

* ``serve-burst``: bursts of same-kernel launches of the four flat
  single-shred kernels and the two multi-shred kernels at smoke
  geometry, so same-program launches coalesce into gangs.
* ``serve-solo``: bursts of one launch of a flat kernel, so every batch
  holds one request and runs on the scalar fallback.

A round is the same fixed sequence of bursts for every tenant (each
tenant starts it at a different kernel), and every tenant finishes the
round before the next begins, so the rounds are replicates; the seed
picks every launch's input frame.  In ``serve-burst``, round ``r``
gives tenant ``r % 4`` one BOB burst whose launch :data:`POISON_INDEX`
stores one tile row below its output surface.  Its correct outcome is
a ``MemorySystemError`` naming its own surface; its burst peers should
complete, and count as failed while they do not.  The poisoned bursts'
inputs do not depend on the seed.

Set-up (server start, sessions, program assembly, every launch's inputs
and references, one warm-up launch per kernel) and the output checks
stay outside the timed phase.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from hostspeed import HostClock
from outcome import Block, Outcome

TENANT_WEIGHTS = (1.0, 2.0, 1.0, 2.0)
#: One round of one tenant, as (kernel, launches per burst).  Tenant
#: ``t`` starts the sequence at entry ``t * len // 4``, so the tenants
#: begin on different kernels; the seed picks the input frames only.
BURST_SEQUENCE = (("AlphaBlend", 4), ("BOB", 8), ("ADVDI", 6),
                  ("ProcAmp", 8), ("LinearFilter", 3), ("SepiaTone", 3))
SOLO_SEQUENCE = (("BOB", 1), ("ProcAmp", 1), ("ADVDI", 1), ("ProcAmp", 1),
                 ("AlphaBlend", 1), ("BOB", 1), ("ProcAmp", 1), ("ADVDI", 1))
POISON_KERNEL = "BOB"
POISON_INDEX = 3
#: input frames of the poisoned bursts start here, whatever the seed
POISON_DATA_SEED = 900_000
#: reference loops timed at each round boundary (:mod:`hostspeed`)
CALIBRATION_LOOPS = 2


@dataclass
class Launch:
    """One request: its inputs, expected outputs and what came back."""

    abbrev: str
    bindings: List[dict]
    inputs: Dict[str, np.ndarray]
    expected: Dict[str, np.ndarray]
    poisoned: bool = False
    in_poisoned_burst: bool = False
    names: Dict[str, str] = field(default_factory=dict)
    result: object = None
    error: Optional[BaseException] = None
    latency: float = 0.0
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)


class Rig:
    """A started server, its sessions, programs and the launch plan."""

    def __init__(self, workload: str, seed: int, rounds: int):
        from repro.kernels import build_program, kernel_by_abbrev
        from repro.perf.study import SMOKE_GEOMETRIES
        from repro.serving import ExoServer, SessionQuotas
        self.burst = workload == "serve-burst"
        spec = BURST_SEQUENCE if self.burst else SOLO_SEQUENCE
        abbrevs = list(dict.fromkeys(abbrev for abbrev, _ in spec))
        self.kernels = {a: kernel_by_abbrev(a) for a in abbrevs}
        self.geoms = {a: SMOKE_GEOMETRIES[a] for a in abbrevs}
        self.server = ExoServer()
        self.sessions = [
            self.server.open_session(f"tenant-{i}", SessionQuotas(weight=w))
            for i, w in enumerate(TENANT_WEIGHTS)]
        self.programs = {a: build_program(self.kernels[a], self.geoms[a])
                         for a in abbrevs}
        self.plan = [self._tenant_plan(workload, seed, tenant, rounds, spec)
                     for tenant in range(len(TENANT_WEIGHTS))]
        self.instructions: Dict[str, int] = {}
        self._uid = itertools.count()

    def _launch(self, abbrev: str, data_seed: int,
                poisoned: bool = False) -> Launch:
        kernel, geom = self.kernels[abbrev], self.geoms[abbrev]
        inputs = {name: np.asarray(image) for name, image in
                  kernel.make_frame_inputs(geom, 0, data_seed).items()}
        expected, _ = kernel.reference_frame(geom, inputs, {})
        consts = kernel.constants(geom)
        bindings = [{**consts, **b} for b in kernel.shred_bindings(geom)]
        if poisoned:
            bindings[0]["by"] = float(geom.height)
        return Launch(abbrev, bindings, inputs,
                      {k: np.asarray(v) for k, v in expected.items()},
                      poisoned=poisoned)

    def _tenant_plan(self, workload, seed, tenant, rounds, spec):
        """``[round][burst]`` lists of launches for one tenant."""
        start = tenant * len(spec) // len(TENANT_WEIGHTS)
        shapes = spec[start:] + spec[:start]
        plan = []
        for r in range(rounds):
            bursts = []
            plan.append(bursts)
            rng = random.Random(f"{workload}:{seed}:{tenant}:{r}")
            for abbrev, size in shapes:
                poison = (self.burst and abbrev == POISON_KERNEL
                          and tenant == r % len(TENANT_WEIGHTS))
                burst = []
                for i in range(size):
                    data_seed = (POISON_DATA_SEED + r * size + i if poison
                                 else rng.randrange(1 << 30))
                    launch = self._launch(abbrev, data_seed,
                                          poison and i == POISON_INDEX)
                    launch.in_poisoned_burst = poison
                    burst.append(launch)
                bursts.append(burst)
        return plan

    async def warm_up(self) -> List[str]:
        """One solo launch per kernel on tenant 0; records each kernel's
        per-launch instruction count for the demux check."""
        problems = []
        for abbrev in self.kernels:
            launch = self._launch(abbrev, 0)
            await self.run_burst(self.sessions[0], [launch])
            if launch.error is not None:
                problems.append(f"warm-up {abbrev}: {launch.error!r}")
                continue
            problems += self.check(launch)
            self.instructions[abbrev] = launch.result.instructions
        return problems

    async def run_burst(self, session, burst: List[Launch]) -> None:
        """Stage, submit together, await all, download, free."""
        surfaces = []
        for launch in burst:
            kernel, geom = self.kernels[launch.abbrev], self.geoms[launch.abbrev]
            uid = next(self._uid)
            staged = {}
            for spec in kernel.surface_specs(geom):
                full = f"{launch.abbrev}-{uid}:{spec.name}"
                launch.names[spec.name] = full
                staged[spec.name] = session.alloc_surface(
                    full, spec.width, spec.height, spec.dtype)
            for name, image in launch.inputs.items():
                staged[name].upload(session.space, image)
            surfaces.append(staged)
        await asyncio.gather(*[
            self._submit(session, launch, staged)
            for launch, staged in zip(burst, surfaces)])
        for launch, staged in zip(burst, surfaces):
            if launch.error is None:
                launch.outputs = {name: staged[name].download(session.space)
                                  for name in launch.expected}
            for full in launch.names.values():
                session.free_surface(full)

    async def _submit(self, session, launch: Launch, staged) -> None:
        started = time.perf_counter()
        try:
            launch.result = await self.server.submit(
                session, self.programs[launch.abbrev],
                bindings=launch.bindings, surfaces=staged)
        except Exception as exc:  # a failed launch is counted, not fatal
            launch.error = exc
        launch.latency = time.perf_counter() - started

    async def _tenant(self, index: int, r: int) -> None:
        for burst in self.plan[index][r]:
            await self.run_burst(self.sessions[index], burst)

    async def serve_round(self, r: int) -> None:
        """Every tenant's round ``r``; the round ends when all are done."""
        await asyncio.gather(*[self._tenant(i, r)
                               for i in range(len(self.sessions))])

    def round_launches(self, r: int):
        for rounds in self.plan:
            for burst in rounds[r]:
                yield from burst

    def check(self, launch: Launch) -> List[str]:
        """Problems with one launch that did not fail (empty if right)."""
        if launch.poisoned:
            return []
        kernel = self.kernels[launch.abbrev]
        result = launch.result
        problems = []
        if result.shreds != len(launch.bindings):
            problems.append(f"{launch.names}: {result.shreds} shreds for "
                            f"{len(launch.bindings)} descriptors")
        want = self.instructions.get(launch.abbrev)
        if want is not None and result.instructions != want:
            problems.append(f"{launch.names}: demuxed {result.instructions} "
                            f"instructions, a solo launch retires {want}")
        for name, expected in launch.expected.items():
            try:
                kernel.compare(name, launch.outputs[name], expected)
            except AssertionError as exc:
                problems.append(f"{launch.names}: {exc}")
        return problems


def poisoned_outcome_ok(launch: Launch) -> bool:
    from repro.errors import MemorySystemError
    return (isinstance(launch.error, MemorySystemError)
            and f"'{launch.names['OUT']}'" in str(launch.error))


async def _run(workload: str, seed: int, rounds: int, setups: int,
               tracer) -> Outcome:
    outcome = Outcome()
    clock = HostClock(tracer)
    problems: List[str] = []
    rig = None
    for _ in range(setups):
        if rig is not None:
            await rig.server.stop()
        started = time.perf_counter()
        rig = Rig(workload, seed, rounds)
        await rig.server.start()
        problems += await rig.warm_up()
        outcome.setup_samples.append(time.perf_counter() - started)

    server = rig.server
    stats = server.stats
    batches0, completed0 = stats.batches_dispatched, stats.launches_completed
    retired0 = server.runtime_stats().instructions_retired
    walls = []
    clock.sample(CALIBRATION_LOOPS)
    outcome.t0 = time.perf_counter()
    for r in range(rounds):
        started = time.perf_counter()
        await rig.serve_round(r)
        walls.append(time.perf_counter() - started)
        clock.sample(CALIBRATION_LOOPS)
    outcome.t1 = time.perf_counter()
    batches = stats.batches_dispatched - batches0
    completed = stats.launches_completed - completed0
    retired = server.runtime_stats().instructions_retired - retired0
    await server.stop()

    outcome.host_scale = clock.overall()
    demuxed = 0
    drains, waits = [], []
    boundaries = [statistics.mean(clock.samples[i:i + CALIBRATION_LOOPS])
                  for i in range(0, len(clock.samples), CALIBRATION_LOOPS)]
    for r, wall in enumerate(walls):
        block = Block(wall, 0, [],
                      clock.scale(boundaries[r], boundaries[r + 1]))
        outcome.blocks.append(block)
        for launch in rig.round_launches(r):
            outcome.attempted += 1
            if launch.poisoned:
                ok = poisoned_outcome_ok(launch)
            else:
                ok = launch.error is None
            if not ok:
                outcome.failed += 1
                block.latencies.append(float("inf"))
                if not launch.in_poisoned_burst:
                    print(f"[perfbench] {workload}: {launch.names}: "
                          f"unexpected failure {launch.error!r}",
                          file=sys.stderr)
                continue
            block.done += 1
            block.latencies.append(launch.latency)
            if launch.result is not None:
                problems += rig.check(launch)
                demuxed += launch.result.instructions
                drains.append(launch.result.wall_seconds)
                waits.append(launch.latency - launch.result.wall_seconds)
    if demuxed != retired:
        problems.append(f"demuxed instructions {demuxed} != batch totals "
                        f"{retired}")
    for problem in problems:
        print(f"[perfbench] {workload}: {problem}", file=sys.stderr)
    # failures are counted in ``failed``; ``correct`` speaks of the
    # operations that did not fail
    outcome.correct = not problems
    outcome.serving = {
        "queue_wait_ms": 1e3 * _median(waits),
        "drain_ms": 1e3 * _median(drains),
        "batches": batches,
        "requests_per_batch": completed / batches if batches else 0.0,
    }
    return outcome


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, rounds: int, setups: int,
        tracer=None) -> Outcome:
    """Run ``rounds`` rounds after ``setups`` set-ups (the last is kept);
    ``tracer`` only spans the host-speed samples."""
    return asyncio.run(_run(workload, seed, rounds, setups, tracer))
