"""Whole-model specialization A/B — fused per-state steppers on vs off.

The fused steppers (repro.core.fuse) collapse each OSM state's ordered
edge probes, token-buffer bookkeeping and transition commit into one
generated function, gated per state by the effect/purity analysis.  This
bench runs both case-study models (StrongARM on ARM MediaBench, PPC 750
on PPC MediaBench) with fusion on and off, asserts bit-identical
simulation results — cycles, retired instructions, committed transitions
— and reports the speedup.  It is the benchmark-shaped sibling of the
CI perf-smoke A/B gate and of tests/integration/test_fastpath_determinism.
"""

from __future__ import annotations

import time

from repro.isa.arm import assemble as assemble_arm
from repro.isa.ppc import assemble as assemble_ppc
from repro.models.ppc750 import Ppc750Model
from repro.models.strongarm import StrongArmModel
from repro.reporting import format_table
from repro.workloads import mediabench

WORKLOADS = ("gsm_dec", "g721_enc", "mpeg2_dec")

CASES = (
    ("strongarm", StrongArmModel, assemble_arm, mediabench.arm_source),
    ("ppc750", Ppc750Model, assemble_ppc, mediabench.ppc_source),
)


def _run(model_class, program, fused):
    model = model_class(program, fused=fused)
    start = time.perf_counter()
    stats = model.run()
    seconds = time.perf_counter() - start
    result = (stats.cycles, stats.instructions, stats.transitions,
              model.exit_code)
    return result, seconds


def run_ab():
    rows = []
    speedups = {}
    for model_name, model_class, assemble, source_of in CASES:
        total_cycles = 0
        total_fused = total_plain = 0.0
        for name in WORKLOADS:
            program = assemble(source_of(name))
            # one untimed run per side: block code compiles once per
            # process, so the side timed second would otherwise skip it
            _run(model_class, program, True)
            _run(model_class, program, False)
            result_fused, seconds_fused = _run(model_class, program, True)
            result_plain, seconds_plain = _run(model_class, program, False)
            # The specialization must be invisible in the results.
            assert result_fused == result_plain, (
                model_name, name, result_fused, result_plain)
            total_cycles += result_fused[0]
            total_fused += seconds_fused
            total_plain += seconds_plain
            rows.append([
                f"{model_name}/{name}", result_fused[0],
                f"{result_fused[0] / seconds_fused:,.0f}",
                f"{result_plain[0] / seconds_plain:,.0f}",
                f"{seconds_plain / seconds_fused:.2f}x",
            ])
        speedups[model_name] = total_plain / total_fused
        rows.append([
            f"{model_name} overall", total_cycles,
            f"{total_cycles / total_fused:,.0f}",
            f"{total_cycles / total_plain:,.0f}",
            f"{speedups[model_name]:.2f}x",
        ])
    return rows, speedups


def test_fused_model_ab(benchmark, report):
    rows, speedups = benchmark.pedantic(run_ab, rounds=1, iterations=1)
    table = format_table(
        ["workload", "cycles", "fused cyc/s", "unfused cyc/s", "speedup"],
        rows,
        title="Whole-model specialization (identical results, different speed)",
    )
    report("fused_model_ab", table)
    # The result equality asserted per workload is the correctness claim;
    # the speed claim is deliberately loose (CI boxes are noisy) — fusion
    # must at minimum not be catastrophically slower.
    for model_name, speedup in speedups.items():
        assert speedup > 0.5, (model_name, speedup)
