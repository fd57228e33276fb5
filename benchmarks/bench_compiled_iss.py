"""Experiment F1 — ISS technique comparison (paper Section 1 context).

Section 1 classifies functional-simulation techniques: "interpreted
simulation, statically-compiled simulation [17] and dynamically-compiled
simulation [3]" (Shade).  This bench measures, for both ISAs on the
MediaBench kernel mix, the plain interpreted ISS (``specialize=False``:
per-instruction decode-cache lookup and semantics dispatch) against
``run()``, which executes each basic block as one dynamically-compiled
function (composed from the ISA's execgen emitters) — the technique gap
that motivates fast functional backbones for micro-architecture
simulators.  Programs are assembled before the
clock starts; each timed run builds a fresh ISS (so the compiled side
pays for its block compiles) and runs it to exit.
"""

from __future__ import annotations

import time

from repro.isa.arm import assemble as assemble_arm
from repro.isa.ppc import assemble as assemble_ppc
from repro.iss import ArmInterpreter, PpcInterpreter
from repro.reporting import format_table
from repro.workloads import mediabench

SCALE = 6
MIN_SPEEDUP = 2.0

ISAS = {
    "ARM": (ArmInterpreter, assemble_arm, mediabench.arm_source),
    "PPC": (PpcInterpreter, assemble_ppc, mediabench.ppc_source),
}


def _programs(isa: str) -> list:
    _, assemble, source_of = ISAS[isa]
    return [assemble(source_of(name, scale=SCALE))
            for name in mediabench.MEDIABENCH_NAMES]


def _run(isa: str, programs: list, specialize: bool):
    iss_class = ISAS[isa][0]
    instructions = 0
    start = time.perf_counter()
    for program in programs:
        iss = iss_class(program, specialize=specialize)
        iss.run()
        instructions += iss.steps
    return instructions, time.perf_counter() - start


def test_compiled_iss_speedup(benchmark, report):
    programs = {isa: _programs(isa) for isa in ISAS}
    compiled = benchmark.pedantic(
        lambda: {isa: _run(isa, programs[isa], True) for isa in ISAS},
        rounds=1, iterations=1)
    rows, speedups = [], {}
    for isa in ISAS:
        compiled_instrs, compiled_seconds = compiled[isa]
        interp_instrs, interp_seconds = _run(isa, programs[isa], False)
        # same work, exactly
        assert compiled_instrs == interp_instrs
        interp_speed = interp_instrs / interp_seconds
        compiled_speed = compiled_instrs / compiled_seconds
        speedups[isa] = compiled_speed / interp_speed
        rows += [
            [f"{isa} interpreted", interp_instrs, f"{interp_seconds:.2f}",
             f"{interp_speed:,.0f}"],
            [f"{isa} dynamically compiled (run)", compiled_instrs,
             f"{compiled_seconds:.2f}", f"{compiled_speed:,.0f}"],
            [f"{isa} speedup (compiled / interpreted)", "", "",
             f"{speedups[isa]:.2f}x"],
        ]
    table = format_table(
        ["technique", "instructions", "seconds", "instr/sec"], rows,
        title="F1. ISS technique comparison (Section-1 context: Shade-style "
              "dynamic compilation vs interpretation)",
    )
    report("compiled_iss", table)
    for isa, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, f"{isa}: {speedup:.2f}x"
