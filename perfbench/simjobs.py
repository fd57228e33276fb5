"""In-process workloads: the two case-study models and the standalone ISS.

A *job* is what a user of ``repro run`` waits for: assemble one program,
build a fresh simulator for it and simulate it to the exit syscall.  A
*round* runs every program of the workload once, in a seeded order; the
run measures whole rounds until ``--seconds`` have passed, so every run
weighs the programs equally.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from hostspeed import HostSpeed
from inputs import Program, iss_programs, model_programs, round_order
from layers import LAYERS, LayerProfile, Tracer

MAX_CYCLES = 10_000_000


def assembler_for(isa: str):
    if isa == "arm":
        from repro.isa.arm import assemble
    else:
        from repro.isa.ppc import assemble
    return assemble


def interpreter_for(isa: str):
    from repro.iss import ArmInterpreter, PpcInterpreter

    return ArmInterpreter if isa == "arm" else PpcInterpreter


def _model_class(name: str):
    if name == "strongarm":
        from repro.models.strongarm import StrongArmModel

        return StrongArmModel
    from repro.models.ppc750 import Ppc750Model

    return Ppc750Model


@dataclass
class JobResult:
    program: int
    seconds: float  # assemble + build + simulate
    simulate: float
    result: Tuple[Optional[int], int, int]  # (cycles, instructions, exit)
    counters: Dict[str, int] = field(default_factory=dict)
    scale: float = 1.0  # host-speed factor from the slices around the job


class SimWorkload:
    """``strongarm``/``ppc750`` (an OSM model) or ``iss`` (the ISS alone)."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.programs: List[Program] = []

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Import the simulator, generate and assemble the inputs, and
        build a simulator for every program once, so the measured jobs
        run with code generation and imports behind them."""
        if self.name == "iss":
            self.programs = iss_programs(self.seed)
        else:
            self.programs = model_programs(self.name, self.seed)
        for program in self.programs:
            self._build(program.isa, assembler_for(program.isa)(program.source))

    def _build(self, isa: str, assembled):
        if self.name == "iss":
            return interpreter_for(isa)(assembled)
        return _model_class(self.name)(assembled)

    # -- one job ---------------------------------------------------------------

    def _job(self, index: int, tracer: Optional[Tracer],
             profile: Optional[LayerProfile]) -> JobResult:
        program = self.programs[index]
        start = time.perf_counter()
        assembled = assembler_for(program.isa)(program.source)
        built = time.perf_counter()
        sim = self._build(program.isa, assembled)
        ready = time.perf_counter()
        if self.name == "iss":
            exit_code = sim.run() if profile is None else profile.run(sim.run)
            done = time.perf_counter()
            result = (None, sim.steps, exit_code)
            counters = _decode_counters(sim.decode_cache)
        else:
            stats = (sim.run(MAX_CYCLES) if profile is None
                     else profile.run(sim.run, MAX_CYCLES))
            done = time.perf_counter()
            result = (stats.cycles, stats.instructions, sim.exit_code)
            counters = {"transitions": stats.transitions}
            iss = getattr(sim, "iss", None) or sim.oracle.interpreter
            counters.update(_decode_counters(iss.decode_cache))
            dcache = getattr(getattr(sim, "dcache", None), "stats", None)
            if dcache is not None:
                counters["dcache_accesses"] = dcache.accesses
                counters["dcache_hits"] = dcache.hits
        if tracer:
            job = tracer.add("job", start, done)
            tracer.add("assemble", start, built, job)
            tracer.add("build", built, ready, job)
            tracer.add("simulate", ready, done, job)
        return JobResult(index, done - start, done - ready, result, counters)

    # -- measurement -------------------------------------------------------------

    def measure(self, seconds: float, speed: HostSpeed,
                tracer: Optional[Tracer] = None,
                profile: Optional[LayerProfile] = None) -> List[JobResult]:
        """Whole rounds until *seconds* have passed (at least one), with a
        host-speed calibration sample before every job and after the last."""
        rng = random.Random(self.seed ^ 0x5EED)
        jobs: List[JobResult] = []
        marks: List[int] = []
        deadline = time.perf_counter() + seconds
        while True:
            for index in round_order(len(self.programs), rng):
                marks.append(speed.sample())
                try:
                    jobs.append(self._job(index, tracer, profile))
                except Exception as exc:  # counted as a failed job
                    jobs.append(JobResult(index, 0.0, 0.0, (None, -1, -1),
                                          {"error": repr(exc)}))
            if time.perf_counter() >= deadline:
                speed.sample()
                for job, mark in zip(jobs, marks):
                    job.scale = speed.scale_after(mark)
                return jobs

    # -- correctness -------------------------------------------------------------

    def expected(self) -> List[Tuple[Optional[int], int, int]]:
        """Per program ``(cycles, instructions, exit)`` it must produce.

        Pinned for MediaBench kernels.  Otherwise the instruction count
        and exit code come from the plain per-instruction interpreter
        (the models and the specialised ISS share generated code, it
        shares none), and a timing model's cycle count from the same
        model built without fused steppers and run under the director's
        reference scheduling loop, the loop ``repro bench`` verifies
        the fast path against.
        """
        out = []
        for program in self.programs:
            if program.expected is not None:
                out.append(program.expected)
                continue
            assembled = assembler_for(program.isa)(program.source)
            oracle = interpreter_for(program.isa)(assembled, specialize=False)
            exit_code = oracle.run()
            cycles = None
            if self.name != "iss":
                model = _model_class(self.name)(assembled, fused=False)
                model.director.reference = True
                cycles = model.run(MAX_CYCLES).cycles
            out.append((cycles, oracle.steps, exit_code))
        return out

    def count_failures(self, jobs: List[JobResult]) -> int:
        """Jobs whose result differs from :meth:`expected`."""
        expected = self.expected()
        return sum(job.result != expected[job.program] for job in jobs)


def _decode_counters(cache) -> Dict[str, int]:
    return {"block_hits": cache.block_hits, "block_misses": cache.block_misses}


# -- metrics -------------------------------------------------------------------

def end_to_end(jobs: List[JobResult]) -> Dict[str, float]:
    """``sim_kips`` over all simulate steps; ``job_ms`` is the mean job
    latency over whole rounds, so every program weighs the same.  (The
    programs differ several-fold in size, and a median over all jobs
    jumps between two programs' latencies from run to run.)"""
    instructions = sum(job.result[1] for job in jobs)
    simulate = sum(job.simulate * job.scale for job in jobs)
    return {
        "sim_kips": instructions / simulate / 1000.0,
        "job_ms": statistics.mean(job.seconds * job.scale for job in jobs) * 1000.0,
    }


def per_layer(jobs: List[JobResult], tracer: Tracer, profile: LayerProfile,
              scale: float) -> Dict[str, float]:
    instructions = sum(job.result[1] for job in jobs)
    metrics: Dict[str, float] = {}
    for span in ("assemble", "build", "simulate"):
        metrics[f"{span}_ms"] = (statistics.median(tracer.durations(span))
                                 * scale * 1000.0)
    for layer in LAYERS:
        metrics[f"{layer}_us"] = profile.seconds[layer] * scale / instructions * 1e6
        metrics[f"{layer}_calls"] = profile.calls[layer] / instructions

    def total(key: str) -> int:
        return sum(job.counters.get(key, 0) for job in jobs)

    cycles = sum(job.result[0] or 0 for job in jobs)
    metrics["cpi"] = cycles / instructions
    metrics["transitions_per_instr"] = total("transitions") / instructions
    probes = total("block_hits") + total("block_misses")
    metrics["block_hit_rate"] = total("block_hits") / probes if probes else 0.0
    accesses = total("dcache_accesses")
    metrics["dcache_hit_rate"] = total("dcache_hits") / accesses if accesses else 0.0
    return metrics
