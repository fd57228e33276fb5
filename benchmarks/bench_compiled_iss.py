"""Experiment F1 — ISS technique comparison (paper Section 1 context).

Section 1 classifies functional-simulation techniques: "interpreted
simulation, statically-compiled simulation [17] and dynamically-compiled
simulation [3]" (Shade).  This bench measures, for both ISAs on the
MediaBench kernel mix, the plain interpreted ISS (``specialize=False``:
per-instruction decode-cache lookup and semantics dispatch) against
``run()``, which executes each basic block as one dynamically-compiled
function (composed from the ISA's execgen emitters) — the technique gap
that motivates fast functional backbones for micro-architecture
simulators.  Programs are assembled before the clock starts; each timed
run builds a fresh ISS per program and runs it to exit.  The compiled
side is timed twice: *cold*, with the process's translation and code
caches (:mod:`repro.iss.translations`, :mod:`repro.codecache`) cleared
first, so it pays for every decode and block compile, and *warm*, right
after, when a process that has run the programs decodes and compiles
nothing.  The three sides alternate round by round and the table
reports each side's median over :data:`ROUNDS` rounds (a single round
per side moves by about ±40% on a shared host).
"""

from __future__ import annotations

import statistics
import time

from repro import codecache
from repro.isa.arm import assemble as assemble_arm
from repro.isa.ppc import assemble as assemble_ppc
from repro.iss import ArmInterpreter, PpcInterpreter, translations
from repro.reporting import format_table
from repro.workloads import mediabench

SCALE = 6
ROUNDS = 5
MIN_SPEEDUP = 2.0

ISAS = {
    "ARM": (ArmInterpreter, assemble_arm, mediabench.arm_source),
    "PPC": (PpcInterpreter, assemble_ppc, mediabench.ppc_source),
}

#: side -> (row label, specialise?, clear the caches first?)
SIDES = {
    "interpreted": ("interpreted", False, False),
    "cold": ("dynamically compiled (run), cold", True, True),
    "warm": ("dynamically compiled (run), warm", True, False),
}


def _programs(isa: str) -> list:
    _, assemble, source_of = ISAS[isa]
    return [assemble(source_of(name, scale=SCALE))
            for name in mediabench.MEDIABENCH_NAMES]


def _run(isa: str, programs: list, specialize: bool, cold: bool):
    iss_class = ISAS[isa][0]
    if cold:
        translations.clear()
        codecache.compile_cached.cache_clear()
    instructions = 0
    start = time.perf_counter()
    for program in programs:
        iss = iss_class(program, specialize=specialize)
        iss.run()
        instructions += iss.steps
    return instructions, time.perf_counter() - start


def _rounds(programs: dict) -> dict:
    """Per ISA and side: (instruction counts, seconds) of every round."""
    runs = {(isa, side): ([], []) for isa in ISAS for side in SIDES}
    for _ in range(ROUNDS):
        for isa in ISAS:
            for side, (_, specialize, cold) in SIDES.items():
                instructions, seconds = _run(isa, programs[isa], specialize, cold)
                runs[isa, side][0].append(instructions)
                runs[isa, side][1].append(seconds)
    return runs


def test_compiled_iss_speedup(benchmark, report):
    programs = {isa: _programs(isa) for isa in ISAS}
    runs = benchmark.pedantic(_rounds, args=(programs,), rounds=1, iterations=1)
    rows, speedups = [], {}
    for isa in ISAS:
        counts = {n for side in SIDES for n in runs[isa, side][0]}
        assert len(counts) == 1  # same work, exactly
        instructions = counts.pop()
        seconds = {side: statistics.median(runs[isa, side][1]) for side in SIDES}
        speed = {side: instructions / seconds[side] for side in SIDES}
        for side, (label, _, _) in SIDES.items():
            rows.append([f"{isa} {label}", instructions, f"{seconds[side]:.3f}",
                         f"{speed[side]:,.0f}"])
        for side in ("cold", "warm"):
            speedups[isa, side] = speed[side] / speed["interpreted"]
            rows.append([f"{isa} speedup ({side} / interpreted)", "", "",
                         f"{speedups[isa, side]:.2f}x"])
    table = format_table(
        ["technique", "instructions", "median s", "instr/sec"], rows,
        title="F1. ISS technique comparison (Section-1 context: Shade-style "
              f"dynamic compilation vs interpretation; medians of {ROUNDS} "
              "alternating rounds)",
    )
    report("compiled_iss", table)
    for (isa, side), speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, f"{isa} {side}: {speedup:.2f}x"
