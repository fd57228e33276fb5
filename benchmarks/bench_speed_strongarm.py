"""Experiment S1 — in-text: StrongARM simulation speed.

The paper: "The resulting simulator runs at the average speed of 650k
cycles/sec on a P-III 1.1GHz desktop.  In comparison, the ARM simulator
of the SimpleScalar tool-set runs at 550k cycles/sec on the same
machine" — i.e. the OSM model is at least as fast as the hand-coded
ad-hoc simulator (~1.18x).

This bench races the two Python implementations of the same
micro-architecture on the MediaBench kernel mix and reports cycles per
wall-clock second for both.  Absolute numbers are Python-scale (the
calibration band flags absolute speed as unreproducible); the reported
shape is the ratio.
"""

from __future__ import annotations

import time

from repro.baselines.simplescalar import SimpleScalarArm
from repro.isa.arm import assemble
from repro.models.strongarm import (
    StrongArmModel,
    default_dcache,
    default_dtlb,
    default_icache,
    default_itlb,
)
from repro.reporting import format_table
from repro.workloads import mediabench

#: In the paper (C++), the OSM simulator beats SimpleScalar (1.18x):
#: the token machinery compiles away while SimpleScalar pays interpretive
#: decode per instruction.  This reproduction's hand-coded baseline keeps
#: the OSM model's pre-decoded instruction cache — removing real
#: SimpleScalar's main handicap — and in Python every token transaction
#: is several real function calls, so the ratio inverts (measured ~0.3x;
#: see EXPERIMENTS.md S1 for the analysis).  The assertion is a guardrail
#: on gross regressions, not the paper's claim.
MAX_SLOWDOWN = 16.0


def _run_osm(sources):
    cycles = 0
    start = time.perf_counter()
    for source in sources:
        model = StrongArmModel(assemble(source))
        model.run()
        cycles += model.cycles
    return cycles, time.perf_counter() - start


def _run_baseline(sources):
    cycles = 0
    start = time.perf_counter()
    for source in sources:
        sim = SimpleScalarArm(
            assemble(source),
            icache=default_icache(),
            dcache=default_dcache(),
            itlb=default_itlb(),
            dtlb=default_dtlb(),
        )
        sim.run()
        cycles += sim.cycles
    return cycles, time.perf_counter() - start


def test_speed_strongarm(benchmark, report):
    sources = [mediabench.arm_source(name) for name in mediabench.MEDIABENCH_NAMES]
    # one untimed pass per side: both share the execgen ISS, whose block
    # code compiles once per process, so without it the side timed
    # second would run on the first side's compiles
    _run_osm(sources)
    _run_baseline(sources)

    osm_cycles, osm_seconds = benchmark.pedantic(
        _run_osm, args=(sources,), rounds=1, iterations=1
    )
    base_cycles, base_seconds = _run_baseline(sources)
    assert osm_cycles == base_cycles  # same micro-architecture, cycle-exact

    osm_speed = osm_cycles / osm_seconds
    base_speed = base_cycles / base_seconds
    ratio = osm_speed / base_speed
    table = format_table(
        ["simulator", "cycles", "seconds", "cycles/sec"],
        [
            ["OSM StrongARM model", osm_cycles, f"{osm_seconds:.2f}", f"{osm_speed:,.0f}"],
            ["SimpleScalar-style (hand-coded)", base_cycles, f"{base_seconds:.2f}", f"{base_speed:,.0f}"],
            ["ratio (OSM / hand-coded)", "", "", f"{ratio:.2f}x"],
        ],
        title="S1. StrongARM simulation speed (paper: 650k vs 550k cyc/s, 1.18x)",
    )
    report("speed_strongarm", table)
    assert ratio >= 1.0 / MAX_SLOWDOWN, f"OSM unacceptably slow: {ratio:.2f}x"
