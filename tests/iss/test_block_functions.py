"""The ISS run loop's compiled blocks against the reference interpreter.

``run()`` executes each basic block as one generated function, composed
from the ISA's execgen emitters; ``specialize=False`` runs the reference
semantics one instruction at a time.  These tests compare the two on complete results: registers,
flags, pc, instret, LR/CTR, the memory image, syscall output, the exit
code and the raised error, over whole programs, a budget that ends
inside a block, and instructions that raise right after a store in the
same block.  They also pin which generated code each path runs: ``run()``
only block functions, the timing models only execgen executors; and
how often ``run()`` dispatches: a block that branches back to its own
entry loops in place, so it is dispatched once per entry.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.arm import assemble as asm_arm
from repro.isa.ppc import assemble as asm_ppc
from repro.iss import ArmInterpreter, IssError, PpcInterpreter
from repro.iss.syscalls import SyscallError
from repro.workloads import generator, mediabench

from ..conftest import arm_program, ppc_program
from .test_compiled import straightline, straightline_ppc

ISAS = {
    "arm": (ArmInterpreter, asm_arm, mediabench.arm_source, generator.arm_source),
    "ppc": (PpcInterpreter, asm_ppc, mediabench.ppc_source, generator.ppc_source),
}


def outcome(iss, max_steps=50_000_000) -> dict:
    """Everything a run leaves behind, the raised error included."""
    try:
        result, error = iss.run(max_steps), None
    except Exception as exc:  # compared, not swallowed
        result, error = None, (type(exc), str(exc))
    state = iss.state
    return {
        "result": result,
        "error": error,
        "pc": state.pc,
        "regs": list(state.regs.values),
        "flags": (state.flag_n, state.flag_z, state.flag_c, state.flag_v),
        "lr_ctr": (state.lr, state.ctr),
        "instret": state.instret,
        "steps": iss.steps,
        "halted": state.halted,
        "exit_code": state.exit_code,
        "memory": {page: bytes(data) for page, data in state.memory._pages.items()},
        "output": bytes(iss.syscalls.output),
    }


def same_as_reference(isa: str, source: str, max_steps=50_000_000, stdin=b"") -> dict:
    iss_class, assemble = ISAS[isa][:2]
    program = assemble(source)
    reference = outcome(iss_class(program, stdin=stdin, specialize=False), max_steps)
    fast_iss = iss_class(program, stdin=stdin)
    fast = outcome(fast_iss, max_steps)
    assert fast == reference
    assert any(block.compiled is not None
               for block in fast_iss.decode_cache.blocks.values())
    return fast


class TestWholePrograms:
    @pytest.mark.parametrize("name", mediabench.MEDIABENCH_NAMES)
    @pytest.mark.parametrize("isa", sorted(ISAS))
    def test_mediabench_kernel(self, isa, name):
        result = same_as_reference(isa, ISAS[isa][2](name))
        assert result["halted"] and result["error"] is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("isa", sorted(ISAS))
    def test_generated_program(self, isa, seed):
        mix = generator.Mix(alu=4.0 + seed, mem=1.0 + seed, mul=1.0,
                            block_length=4 + 5 * seed, iterations=6,
                            footprint_words=32, seed=0xC0FFEE + seed)
        result = same_as_reference(isa, ISAS[isa][3](mix))
        assert result["halted"] and result["error"] is None


_ARM_LOOP = arm_program("""
    mov r1, #0
    mov r2, #0
loop:
    add r1, r1, #1
    add r2, r2, r1
    eor r3, r2, r1
    cmp r1, #20
    blt loop
    mov r0, r1
""")

_PPC_LOOP = ppc_program("""
    li    r4, 0
    li    r5, 0
loop:
    addi  r4, r4, 1
    add   r5, r5, r4
    xor   r6, r5, r4
    cmpwi r4, 20
    blt   loop
    mr    r3, r4
""")


class TestBudget:
    """A ``max_steps`` budget that runs out inside a block is met exactly:
    the same instructions retire and the same error is raised.  The
    loops retire 2 + 5k instructions by the end of iteration k, the
    first in the entry block and the rest in the loop block, which loops
    in place: budgets end at and between its iteration boundaries."""

    @pytest.mark.parametrize("budget", [1, 3, 7, 12, 13, 16, 17, 50, 51, 52, 53, 54,
                                        57, 58, 61, 101, 102, 103])
    @pytest.mark.parametrize("isa,source", [("arm", _ARM_LOOP), ("ppc", _PPC_LOOP)],
                             ids=["arm", "ppc"])
    def test_budget_ends_mid_block(self, isa, source, budget):
        result = same_as_reference(isa, source, max_steps=budget)
        assert result["error"] == (IssError, f"program exceeded {budget} instructions")
        assert result["instret"] == budget

    @pytest.mark.parametrize("isa,source", [("arm", _ARM_LOOP), ("ppc", _PPC_LOOP)],
                             ids=["arm", "ppc"])
    def test_budget_of_exactly_the_program(self, isa, source):
        total = same_as_reference(isa, source)["instret"]
        assert same_as_reference(isa, source, max_steps=total)["error"] is None
        short = same_as_reference(isa, source, max_steps=total - 1)
        assert short["error"][0] is IssError

    @pytest.mark.parametrize("isa", sorted(ISAS))
    def test_spin_exhausts_the_budget(self, isa):
        # ``b .``: a one-instruction block that loops in place until the
        # next iteration would pass the budget
        wrap = arm_program if isa == "arm" else ppc_program
        first = "mov r1, #1" if isa == "arm" else "li r4, 1"
        result = same_as_reference(isa, wrap(f"    {first}\nspin:\n    b spin"),
                                   max_steps=1000)
        assert result["error"] == (IssError, "program exceeded 1000 instructions")
        assert result["instret"] == 1000


def _word_of(isa: str, line: str) -> int:
    """The encoding of the instruction *line*."""
    program = ISAS[isa][1](f"    .text\n_start:\n    {line}\n")
    return program.text_words()[0][1]


class TestLoopInPlace:
    """A block that branches back to its own entry loops in place: it is
    dispatched once per entry, and a store over it stops it."""

    @pytest.mark.parametrize("isa,source", [("arm", _ARM_LOOP), ("ppc", _PPC_LOOP)],
                             ids=["arm", "ppc"])
    def test_the_loop_block_is_dispatched_once(self, isa, source):
        iss_class, assemble = ISAS[isa][:2]
        program = assemble(source)
        iss = iss_class(program)
        assert iss.run() == 20
        cache = iss.decode_cache
        assert (cache.block_misses, cache.block_hits) == (3, 0)
        block = cache.blocks[program.symbols["loop"]]
        assert "while True:" in block.compiled.__block_source__

    def test_arm_store_over_the_running_loop_block(self):
        # the first iteration runs in the entry block; the third, the
        # loop block's second in place, stores ``add r4, r4, #16`` over
        # ``patch``: the guard leaves the loop before ``patch``, and the
        # rest of the run decodes anew
        result = same_as_reference("arm", arm_program("""
    li    r1, patch
    li    r6, newword
    ldr   r2, [r6]
    mov   r3, #0
    mov   r4, #0
loop:
    add   r3, r3, #1
    cmp   r3, #3
    streq r2, [r1]
patch:
    add   r4, r4, #1
    cmp   r3, #6
    blt   loop
    mov   r0, r4
""", data=f"newword: .word {_word_of('arm', 'add r4, r4, #16')}"))
        assert result["exit_code"] == 2 + 4 * 16

    def test_ppc_store_over_the_running_loop_block(self):
        # the store goes to ``buf`` until the third iteration (the loop
        # block's second in place), then (r8 = patch - buf) stores
        # ``addi r3, r3, 16`` over ``patch``
        result = same_as_reference("ppc", ppc_program("""
    li32   r4, buf
    li32   r10, patch
    subf   r10, r4, r10
    li32   r6, newword
    lwz    r7, 0(r6)
    li     r5, 0
    li     r3, 0
loop:
    addi   r5, r5, 1
    subfic r9, r5, 2
    srawi  r9, r9, 31
    and    r8, r9, r10
    stwx   r7, r4, r8
patch:
    addi   r3, r3, 1
    cmpwi  r5, 6
    blt    loop
""", data=f"buf: .word 0\nnewword: .word {_word_of('ppc', 'addi r3, r3, 16')}"))
        assert result["exit_code"] == 2 + 4 * 16


    @settings(max_examples=25, deadline=None)
    @given(straightline(), st.integers(1, 8), st.integers(1, 200))
    def test_random_arm_loops_and_budgets(self, body, iterations, budget):
        # random ALU operations, a load, a store and the counter: one
        # block that loops in place, cut by a budget anywhere (or none)
        lines = body.splitlines()
        same_as_reference("arm", arm_program("\n".join([
            *lines[:4], "    li r9, buf", f"    mov r8, #{iterations}", "lp:",
            *lines[4:], "    ldr r5, [r9]", "    add r5, r5, r7", "    str r5, [r9]",
            "    subs r8, r8, #1", "    bne lp", "    mov r0, #0"]), data="buf: .word 0"),
            max_steps=budget)

    @settings(max_examples=25, deadline=None)
    @given(straightline_ppc(), st.integers(1, 8), st.integers(1, 200))
    def test_random_ppc_loops_and_budgets(self, body, iterations, budget):
        lines = body.splitlines()[:-4]  # without the trailing CR0 branch
        same_as_reference("ppc", ppc_program("\n".join([
            *lines[:4], "    li32 r12, buf", f"    li r13, {iterations}", "lp:",
            *lines[4:], "    lwz r11, 0(r12)", "    add r11, r11, r4",
            "    stw r11, 0(r12)", "    addi r13, r13, -1", "    cmpwi r13, 0",
            "    bne lp", "    li r3, 0"]), data="buf: .word 0"),
            max_steps=budget)


def _iss_programs(seed: int):
    """One round of perfbench's ``iss`` workload (``perfbench/inputs.py``)."""
    module = sys.modules.get("perfbench_inputs")
    if module is None:
        path = Path(__file__).resolve().parents[2] / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclass looks itself up
        spec.loader.exec_module(module)
    return module.iss_programs(seed)


#: block dispatches (``block_hits + block_misses``) of ``run()`` on each
#: MediaBench kernel of the ``iss`` round; every generated program makes
#: 3 (its loop is one block, dispatched once)
KERNEL_DISPATCHES = {
    "arm": {"gsm_dec": 121, "gsm_enc": 121, "g721_dec": 3, "g721_enc": 289,
            "mpeg2_dec": 301, "mpeg2_enc": 151},
    "ppc": {"gsm_dec": 121, "gsm_enc": 161, "g721_dec": 769, "g721_enc": 1983,
            "mpeg2_dec": 1261, "mpeg2_enc": 151},
}


@pytest.mark.parametrize("seed", [1, 2])
def test_iss_round_dispatch_counts(seed):
    """perfbench's ``iss`` round against the reference, and the exact
    number of block dispatches it makes: 5,450 (8,772 when every
    iteration of a one-block loop was a dispatch)."""
    total = 0
    for program in _iss_programs(seed):
        iss_class, assemble = ISAS[program.isa][:2]
        assembled = assemble(program.source)
        iss = iss_class(assembled)
        assert outcome(iss) == outcome(iss_class(assembled, specialize=False)), \
            program.name
        cache = iss.decode_cache
        dispatches = cache.block_hits + cache.block_misses
        assert dispatches == KERNEL_DISPATCHES[program.isa].get(program.name, 3), \
            program.name
        total += dispatches
    assert total == 5450


class TestArmPcWrites:
    def test_conditional_and_computed_pc_writes(self):
        # every way an ARM data instruction can write the PC, taken and
        # not: ldm, mov, ldr and a flag-setting sub, each conditional (the
        # flags the sub sets decide the ``addeq`` after each return)
        result = same_as_reference("arm", arm_program("""
    mov  sp, #0x8000
    mov  r5, #0
    mov  r6, #0
loop:
    bl   fn
    addeq r5, r5, #256
    add  r6, r6, #1
    cmp  r6, #4
    blt  loop
    mov  r0, r5
    b    done
fn:
    push {lr}
    add  r5, r5, #1
    cmp  r6, #1
    ldmfdeq sp!, {pc}
    pop  {r7}
    li   r8, slot
    str  r7, [r8]
    add  r5, r5, #16
    cmp  r6, #0
    moveq pc, r7
    add  r9, r7, #4
    cmp  r6, #2
    ldreq pc, [r8]
    subnes pc, r9, #4
done:
    nop
""", data="slot: .word 0"))
        assert result["exit_code"] == (4 + 3 * 16 + 3 * 256) & 0xFF


class TestRaisingAfterAStore:
    """An undefined word or an unknown syscall right after a store in the
    same block leaves the reference's pc, instret, flags, registers and
    memory (the store done, the raiser not retired)."""

    def test_arm_undefined_word(self):
        result = same_as_reference("arm", arm_program("""
    li   r1, buf
    mov  r2, #77
    cmp  r2, #77
    str  r2, [r1]
    .word 0xFFFFFFFF
""", data="buf: .word 0"))
        assert result["error"][0] is ValueError

    def test_ppc_illegal_word(self):
        result = same_as_reference("ppc", ppc_program("""
    li32  r4, buf
    li    r6, 77
    cmpwi r6, 77
    stw   r6, 0(r4)
    .word 0
    li    r6, 1
""", data="buf: .word 0"))
        assert result["error"][0] is ValueError

    def test_arm_unknown_syscall(self):
        result = same_as_reference("arm", arm_program("""
    li   r1, buf
    mov  r2, #77
    cmp  r2, #70
    str  r2, [r1]
    swi  #9
""", data="buf: .word 0"))
        assert result["error"][0] is SyscallError

    def test_ppc_unknown_syscall(self):
        result = same_as_reference("ppc", ppc_program("""
    li32  r4, buf
    li    r6, 77
    cmpwi r6, 70
    stw   r6, 0(r4)
    li    r0, 9
    sc
""", data="buf: .word 0"))
        assert result["error"][0] is SyscallError

    @pytest.mark.parametrize("isa,body,before", [
        ("arm", "    mov r4, #3\n    swi #4", 1),
        ("ppc", "    li r4, 3\n    li r0, 4\n    sc", 2),
    ], ids=["arm", "ppc"])
    def test_cycles_syscall_reads_exact_instret(self, isa, body, before):
        # ``cycles`` returns instret, and the program exits with it: a
        # block function must count the instructions before the syscall
        # when it calls the handler
        source = arm_program(body) if isa == "arm" else ppc_program(body)
        assert same_as_reference(isa, source)["exit_code"] == before


def _called_files(run) -> set:
    """The filenames of every Python function *run* calls."""
    files = set()

    def profile(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return files


class TestEachPathRunsItsCode:
    @pytest.mark.parametrize("isa", sorted(ISAS))
    def test_run_executes_block_functions_and_no_executor(self, isa,
                                                          fresh_translations):
        iss_class, assemble, source_of = ISAS[isa][:3]
        with fresh_translations():  # no executor bound by an earlier step()
            iss = iss_class(assemble(source_of("gsm_dec")))
            files = _called_files(iss.run)
        assert any(name.startswith("<block ") for name in files)
        assert not any(name.startswith("<execgen") for name in files)
        assert all(instr.exec_fn is None for instr in iss.decode_cache.entries.values())

    @pytest.mark.parametrize("model", ["strongarm", "ppc750"])
    def test_fused_models_bind_every_executed_instruction(self, model, monkeypatch):
        from repro.isa.arm import semantics as arm_semantics
        from repro.isa.ppc import semantics as ppc_semantics
        from repro.models.ppc750 import Ppc750Model
        from repro.models.strongarm import StrongArmModel

        calls = []
        for module in (arm_semantics, ppc_semantics):
            real = module.execute

            def counted(state, instr, real=real):
                calls.append(instr)
                return real(state, instr)
            monkeypatch.setattr(module, "execute", counted)
        if model == "strongarm":
            sim = StrongArmModel(asm_arm(mediabench.arm_source("gsm_dec")))
        else:
            sim = Ppc750Model(asm_ppc(mediabench.ppc_source("gsm_dec")))
        stats = sim.run()
        assert stats.instructions > 0
        assert calls == []
