"""Experiment S2 — in-text: PPC-750 simulation speed.

The paper: "The average speed of the OSM model is 250k cycles/sec on a
P-III 1.1GHz desktop, 4 times that of the SystemC model."

This bench races the OSM PPC-750 model against the SystemC-style
port/wire/delta-cycle model on the MediaBench + SPEC-like mix.  The
structural overhead of the hardware-centric model is also reported
directly: module evaluations per simulated cycle (every delta iteration
revisits all modules) versus the OSM director's per-cycle edge probes.
"""

from __future__ import annotations

import time

from repro.baselines.systemc_style import Ppc750SystemC
from repro.isa.ppc import assemble
from repro.models.ppc750 import Ppc750Model
from repro.reporting import format_table
from repro.workloads import mediabench, speclike

#: see bench_speed_strongarm — Python-scale guardrail, not the C++ 4x
MIN_RATIO = 0.25


def _sources():
    mix = [mediabench.ppc_source(n) for n in mediabench.MEDIABENCH_NAMES]
    mix += [speclike.ppc_source(n) for n in speclike.SPECLIKE_NAMES]
    return mix


def _run_osm(sources):
    cycles = 0
    start = time.perf_counter()
    for source in sources:
        model = Ppc750Model(assemble(source))
        model.run()
        cycles += model.cycles
    return cycles, time.perf_counter() - start


def _run_systemc(sources):
    cycles = 0
    deltas = 0
    start = time.perf_counter()
    for source in sources:
        sim = Ppc750SystemC(assemble(source))
        sim.run()
        cycles += sim.cycles
        deltas += sim.sim.delta_cycles_run
    return cycles, time.perf_counter() - start, deltas


def test_speed_ppc750(benchmark, report):
    sources = _sources()
    # one untimed pass per side, as in bench_speed_strongarm: both run
    # the execgen ISS, whose block code compiles once per process
    _run_osm(sources)
    _run_systemc(sources)
    osm_cycles, osm_seconds = benchmark.pedantic(
        _run_osm, args=(sources,), rounds=1, iterations=1
    )
    sc_cycles, sc_seconds, sc_deltas = _run_systemc(sources)

    osm_speed = osm_cycles / osm_seconds
    sc_speed = sc_cycles / sc_seconds
    ratio = osm_speed / sc_speed
    table = format_table(
        ["simulator", "cycles", "seconds", "cycles/sec"],
        [
            ["OSM PPC-750 model", osm_cycles, f"{osm_seconds:.2f}", f"{osm_speed:,.0f}"],
            ["SystemC-style (port/wire)", sc_cycles, f"{sc_seconds:.2f}", f"{sc_speed:,.0f}"],
            ["ratio (OSM / SystemC-style)", "", "", f"{ratio:.2f}x"],
            ["delta iterations per cycle", "", "", f"{sc_deltas / sc_cycles:.2f}"],
        ],
        title="S2. PPC-750 simulation speed (paper: OSM 250k cyc/s, 4x SystemC)",
    )
    report("speed_ppc750", table)
    assert ratio >= MIN_RATIO, f"OSM unacceptably slow vs SystemC-style: {ratio:.2f}x"
    # Structural claim: the delta-cycle engine revisits every module
    # several times per simulated cycle.
    assert sc_deltas / sc_cycles >= 2.0
