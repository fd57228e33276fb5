"""Experiment F1 — ISS technique comparison (paper Section 1 context).

Section 1 classifies functional-simulation techniques: "interpreted
simulation, statically-compiled simulation [17] and dynamically-compiled
simulation [3]" (Shade).  This bench measures the plain interpreted ISS
(``specialize=False``: per-instruction decode-cache lookup and semantics
dispatch) against the dynamically-compiled ISS on the MediaBench kernel
mix — the technique gap that motivates fast functional backbones for
micro-architecture simulators.  The specialised interpreter the timing
models run on (execgen executors chained block at a time) is reported as
a middle row, so the compiled ISS's own margin over it stays visible.
"""

from __future__ import annotations

import time

from repro.isa.arm import assemble
from repro.iss import ArmInterpreter, CompiledArmInterpreter
from repro.reporting import format_table
from repro.workloads import mediabench

SCALE = 6
MIN_SPEEDUP = 2.0


def _run(factory, sources):
    instructions = 0
    start = time.perf_counter()
    for source in sources:
        iss = factory(assemble(source))
        iss.run()
        instructions += iss.steps
    return instructions, time.perf_counter() - start


def _interpreted(program):
    return ArmInterpreter(program, specialize=False)


def test_compiled_iss_speedup(benchmark, report):
    sources = [
        mediabench.arm_source(name, scale=SCALE)
        for name in mediabench.MEDIABENCH_NAMES
    ]
    compiled_instrs, compiled_seconds = benchmark.pedantic(
        _run, args=(CompiledArmInterpreter, sources), rounds=1, iterations=1
    )
    interp_instrs, interp_seconds = _run(_interpreted, sources)
    special_instrs, special_seconds = _run(ArmInterpreter, sources)
    # same work, exactly
    assert compiled_instrs == interp_instrs == special_instrs

    compiled_speed = compiled_instrs / compiled_seconds
    interp_speed = interp_instrs / interp_seconds
    special_speed = special_instrs / special_seconds
    speedup = compiled_speed / interp_speed
    table = format_table(
        ["technique", "instructions", "seconds", "instr/sec"],
        [
            ["interpreted", interp_instrs, f"{interp_seconds:.2f}", f"{interp_speed:,.0f}"],
            ["specialised (execgen blocks)", special_instrs,
             f"{special_seconds:.2f}", f"{special_speed:,.0f}"],
            ["dynamically compiled", compiled_instrs, f"{compiled_seconds:.2f}", f"{compiled_speed:,.0f}"],
            ["speedup (compiled / interpreted)", "", "", f"{speedup:.2f}x"],
            ["compiled / specialised", "", "", f"{compiled_speed / special_speed:.2f}x"],
        ],
        title="F1. ISS technique comparison (Section-1 context: Shade-style "
              "dynamic compilation vs interpretation)",
    )
    report("compiled_iss", table)
    assert speedup >= MIN_SPEEDUP
