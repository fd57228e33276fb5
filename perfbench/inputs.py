"""Seeded inputs for every workload, and the results they must produce.

Everything here is a pure function of ``--seed``: the same seed gives
the same programs, the same job order and the same fleet jobs.
The MediaBench-style kernels are the paper's case-study workloads and
carry fixed input data; the seed picks the synthetic programs
(:class:`repro.workloads.generator.Mix` seeds) and the order jobs run in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: instruction mixes of the synthetic programs: ALU-bound, memory-bound
#: and multiply-bound, so each layer's share moves between programs
MIXES = (
    {"alu": 6.0, "mem": 2.0, "mul": 1.0},
    {"alu": 2.0, "mem": 6.0, "mul": 1.0},
    {"alu": 3.0, "mem": 3.0, "mul": 3.0},
)
MIX_SHAPE = {"block_length": 16, "iterations": 32, "footprint_words": 64}

#: (cycles, instructions, exit code) of every MediaBench kernel on each
#: case-study model.  A change that only speeds the simulator up must
#: leave these identical; a change that alters the modelled machine on
#: purpose updates them in a change of its own.
EXPECTED_MODEL = {
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

#: ISA each case-study model consumes
MODEL_ISA = {"strongarm": "arm", "ppc750": "ppc"}


@dataclass(frozen=True)
class Program:
    """One simulated program: a name, its ISA and its assembly text.

    ``expected`` is ``(cycles, instructions, exit code)`` where the
    result is pinned (MediaBench kernels), else ``None``.
    """

    name: str
    isa: str
    source: str
    expected: Optional[Tuple[int, int, int]] = None


def _generated(isa: str, index: int, seed: int) -> Program:
    from repro.workloads.generator import Mix, arm_source, ppc_source

    mix = Mix(seed=seed, **MIXES[index], **MIX_SHAPE)
    source = arm_source(mix) if isa == "arm" else ppc_source(mix)
    return Program(f"gen{index}-{seed:08x}", isa, source)


def _mediabench(isa: str, model: Optional[str]) -> List[Program]:
    from repro.workloads import mediabench

    source_of = mediabench.arm_source if isa == "arm" else mediabench.ppc_source
    pinned = EXPECTED_MODEL[model] if model else {}
    return [Program(name, isa, source_of(name), pinned.get(name))
            for name in mediabench.MEDIABENCH_NAMES]


def model_programs(model: str, seed: int) -> List[Program]:
    """One round of a case-study model workload: the six MediaBench
    kernels plus one seeded synthetic program per mix."""
    rng = random.Random(seed)
    isa = MODEL_ISA[model]
    generated = [_generated(isa, i, rng.getrandbits(31)) for i in range(len(MIXES))]
    return _mediabench(isa, model) + generated


def iss_programs(seed: int) -> List[Program]:
    """One round of the ISS workload: both ISAs' MediaBench kernels plus
    seeded synthetic programs for each ISA.  MediaBench kernels pin only
    the instruction count and exit code (the ISS counts no cycles)."""
    rng = random.Random(seed)
    programs: List[Program] = []
    for isa, model in (("arm", "strongarm"), ("ppc", "ppc750")):
        for program in _mediabench(isa, model):
            _, instructions, exit_code = program.expected
            programs.append(Program(program.name, isa, program.source,
                                    (None, instructions, exit_code)))
        programs.extend(_generated(isa, i, rng.getrandbits(31))
                        for i in range(len(MIXES)))
    return programs


def round_order(count: int, rng: random.Random) -> List[int]:
    """A fresh seeded permutation of one round's program indices."""
    order = list(range(count))
    rng.shuffle(order)
    return order


# -- fleet submissions -------------------------------------------------------

def fleet_rounds(seed: int) -> Iterator[List[Dict]]:
    """Endless rounds of fleet jobs: each is the sweep matrix of
    ``repro fleet-bench`` (:func:`repro.fleet.bench.bench_jobs`) with its
    job seeds replaced by fresh ones drawn from *seed*.  Every round keeps
    the matrix's models, configs and mixes, and no job of one round
    repeats a job of another, so each round starts with a cold cache."""
    from repro.fleet.bench import bench_jobs

    matrix = bench_jobs()
    seeds = sorted({job["seed"] for job in matrix})
    rng = random.Random(seed)
    used = set()
    while True:
        fresh = {}
        for old in seeds:
            new = rng.getrandbits(31)
            while new in used:
                new = rng.getrandbits(31)
            used.add(new)
            fresh[old] = new
        yield [dict(job, seed=fresh[job["seed"]]) for job in matrix]
