"""Three-way lattice differential: reference semantics, executors and
block functions.

Every point of every encoding class of the isaaudit lattice
(:func:`repro.analysis.audit.targets.build_target`) runs from a few
seeded register files and flag patterns (so conditional forms both
execute and skip, and decrementing branches reach zero and do not)
through the reference ``semantics.execute``, the execgen executor and a
one-instruction block function.  All three must leave the same
registers, flags, PC, LR/CTR, halt latch and exit code, instret, memory
pages and syscall output.  The executor's ``ExecInfo`` must also equal
the reference's in every field the timing models read.  The block
function runs with an instret limit of one instruction, so a branch to
its own address, whose block loops in place, stops after one iteration.
"""

import importlib
import random
from types import SimpleNamespace

import pytest

from repro.analysis.audit.targets import build_target
from repro.iss import ArmInterpreter, PpcInterpreter
from repro.iss.state import ArchState
from repro.iss.syscalls import SyscallHandler

ADDR = 0x1000

#: ISA -> (interpreter class, syscall argument registers, return register)
ISAS = {"arm": (ArmInterpreter, (0, 1, 2), 0),
        "ppc": (PpcInterpreter, (3, 4, 5), 3)}

#: the ExecInfo fields the timing models read
INFO_FIELDS = ("executed", "next_pc", "taken", "mem_addr", "mem_addrs",
               "mem_is_store", "mul_operand")

#: register values on the edges of 32-bit arithmetic, shifts and signs
EDGES = (0, 1, 2, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
         0xFFFFFFFE, 0x1003, 0x200)

#: (n, z, c, v, lr, ctr): every condition flips between the two, and a
#: decremented CTR reaches zero from one and not from the other
FLAG_PATTERNS = ((0, 1, 0, 0, 0x40, 1), (1, 0, 1, 1, 0x1237, 2))


def _register_files(n_regs):
    rng = random.Random(0x1A77 + n_regs)
    return [
        [0x200 + 8 * i for i in range(n_regs)],  # the audit's own seeding
        [rng.getrandbits(32) for _ in range(n_regs)],
        [EDGES[i % len(EDGES)] for i in range(n_regs)],
        [rng.randrange(64) for _ in range(n_regs)],
    ]


def _outcome(state, error):
    return {
        "pc": state.pc,
        "regs": list(state.regs.values),
        "flags": (state.flag_n, state.flag_z, state.flag_c, state.flag_v),
        "lr_ctr": (state.lr, state.ctr),
        "halted": (state.halted, state.exit_code),
        "instret": state.instret,
        "memory": {page: bytes(data) for page, data in state.memory._pages.items()},
        "output": bytes(state.syscalls.output),
        "error": error,
    }


def _run(path, state):
    """(outcome, ExecInfo or None) of one path on *state*."""
    info = error = None
    try:
        info = path(state)
    except Exception as exc:  # compared, not swallowed
        error = (type(exc), str(exc))
    return _outcome(state, error), info


def _cases(isa):
    """Per lattice point and seeded state: (label, [(outcome, ExecInfo)
    of the reference, the executor and the block function])."""
    iss_class, arg_regs, ret_reg = ISAS[isa]
    execgen = importlib.import_module(iss_class.execgen)
    target = build_target(isa)
    files = _register_files(iss_class.n_regs)
    for cls in target.classes:
        for point in cls.points():
            instr = target.decode(ADDR, cls.encode(point) & 0xFFFFFFFF)
            if instr.kind in target.udf_kinds:
                continue
            namespace = dict(execgen.GLOBALS)
            exec(execgen._translate(instr, "_x"), namespace)
            exec(execgen.block_source([instr], "_b"), namespace)
            executor, block_fn = namespace["_x"], namespace["_b"]

            def reference(state, instr=instr):
                info = target.execute(state, instr)
                state.instret += 1
                return info

            def by_executor(state, executor=executor):
                info = executor(state)
                state.instret += 1
                return info

            def by_block(state, block_fn=block_fn):
                # a budget of one instruction: a branch to itself (a
                # block that loops in place) runs once, as the others do;
                # the block its store guards test stays valid
                state.pc = block_fn(state, state.syscalls, state.instret + 1,
                                    SimpleNamespace(valid=True))

            for regs in files:
                for flags in FLAG_PATTERNS:
                    results = []
                    for path in (reference, by_executor, by_block):
                        state = ArchState(iss_class.n_regs, syscalls=SyscallHandler(
                            arg_regs=arg_regs, ret_reg=ret_reg))
                        state.regs.values[:] = regs
                        (state.flag_n, state.flag_z, state.flag_c, state.flag_v,
                         state.lr, state.ctr) = flags
                        if cls.setup is not None:
                            cls.setup(state, point)
                        state.pc = ADDR
                        results.append(_run(path, state))
                    yield (f"{cls.name}{point} {instr.text!r} "
                           f"regs#{files.index(regs)} flags{flags}", results)


@pytest.mark.parametrize("isa", sorted(ISAS))
def test_reference_executor_and_block_agree_on_the_lattice(isa):
    divergences = []
    executed = set()
    taken = set()
    count = 0
    for label, results in _cases(isa):
        count += 1
        (ref, info), (by_exec, exec_info), (by_block, _) = results
        if by_exec != ref:
            divergences.append(f"{label}: executor state {by_exec} != {ref}")
        if by_block != ref:
            divergences.append(f"{label}: block state {by_block} != {ref}")
        if info is not None:
            executed.add(info.executed)
            taken.add(info.taken)
            fields = {name: getattr(info, name) for name in INFO_FIELDS}
            got = {name: getattr(exec_info, name, None) for name in INFO_FIELDS}
            if got != fields:
                divergences.append(f"{label}: executor ExecInfo {got} != {fields}")
    assert not divergences, "\n".join(divergences[:10])
    assert count > 1000
    # conditional forms both executed and skipped, branches went both ways
    assert taken == {True, False}
    if isa == "arm":
        assert executed == {True, False}
