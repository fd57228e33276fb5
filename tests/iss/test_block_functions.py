"""The ISS run loop's compiled blocks against the reference interpreter.

``run()`` executes each basic block as one generated function, composed
from the ISA's execgen emitters; ``specialize=False`` runs the reference
semantics one instruction at a time.  These tests compare the two on complete results: registers,
flags, pc, instret, LR/CTR, the memory image, syscall output, the exit
code and the raised error, over whole programs, a budget that ends
inside a block, and instructions that raise right after a store in the
same block.  They also pin which generated code each path runs: ``run()``
only block functions, the timing models only execgen executors.
"""

import sys

import pytest

from repro.isa.arm import assemble as asm_arm
from repro.isa.ppc import assemble as asm_ppc
from repro.iss import ArmInterpreter, IssError, PpcInterpreter
from repro.iss.syscalls import SyscallError
from repro.workloads import generator, mediabench

from ..conftest import arm_program, ppc_program

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
    the same instructions retire and the same error is raised."""

    @pytest.mark.parametrize("budget", [1, 3, 7, 50, 51, 52, 53, 54])
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
