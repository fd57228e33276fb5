"""Pinned case-study results: the six MediaBench kernels on both OSM
models, with the default configuration (EXPERIMENTS.md, table A1).

A change that shifts a cycle count fails here with the kernel named,
and a fused stepper the build gate demoted to the interpreted reference
fails on the fusion census instead of showing up only as a slowdown.
"""

import pytest

from repro.workloads import mediabench

#: model -> kernel -> (cycles, instructions, exit code)
EXPECTED = {
    "strongarm": {
        "gsm_dec": (4575, 2576, 130),
        "gsm_enc": (8509, 4814, 11),
        "g721_dec": (3888, 3182, 159),
        "g721_enc": (7287, 5033, 96),
        "mpeg2_dec": (8759, 7068, 40),
        "mpeg2_enc": (5560, 3444, 122),
    },
    "ppc750": {
        "gsm_dec": (2903, 3571, 130),
        "gsm_enc": (5703, 6695, 11),
        "g721_dec": (2744, 3103, 159),
        "g721_enc": (3789, 5754, 96),
        "mpeg2_dec": (5802, 8577, 36),
        "mpeg2_enc": (4200, 4593, 122),
    },
}


def _build(model_name: str, kernel: str):
    if model_name == "strongarm":
        from repro.isa.arm import assemble
        from repro.models.strongarm import StrongArmModel

        return StrongArmModel(assemble(mediabench.arm_source(kernel)))
    from repro.isa.ppc import assemble
    from repro.models.ppc750 import Ppc750Model

    return Ppc750Model(assemble(mediabench.ppc_source(kernel)))


@pytest.mark.parametrize("model_name", sorted(EXPECTED))
@pytest.mark.parametrize("kernel", mediabench.MEDIABENCH_NAMES)
def test_mediabench_results_are_pinned(model_name, kernel):
    model = _build(model_name, kernel)
    census = model.spec.compile_stats
    assert census.fused_fallback_states == 0, census.fallback_states
    assert census.fused_states == len(model.spec.states)
    stats = model.run(10_000_000)
    got = (stats.cycles, stats.instructions, model.exit_code)
    assert got == EXPECTED[model_name][kernel]
