"""Tests for the dynamically-compiled ISS: ``run()`` executing each basic
block as one compiled function, against the plain interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.arm import assemble
from repro.isa.ppc import assemble as assemble_ppc
from repro.iss import ArmInterpreter, IssError, PpcInterpreter

from ..conftest import arm_program, ppc_program


def _same_state(compiled, interpreted):
    for iss in (compiled, interpreted):
        assert iss.state.halted
    assert compiled.state.exit_code == interpreted.state.exit_code
    assert compiled.state.regs.values == interpreted.state.regs.values
    assert compiled.state.pc == interpreted.state.pc
    assert compiled.state.flags_word == interpreted.state.flags_word
    assert compiled.state.instret == interpreted.state.instret
    assert compiled.syscalls.output == interpreted.syscalls.output


def differential(body: str, data: str = "", stdin: bytes = b""):
    source = arm_program(body, data)
    interpreted = ArmInterpreter(assemble(source), stdin=stdin, specialize=False)
    interpreted.run(500_000)
    compiled = ArmInterpreter(assemble(source), stdin=stdin)
    compiled.run()
    _same_state(compiled, interpreted)
    return compiled


def differential_ppc(body: str):
    source = ppc_program(body)
    interpreted = PpcInterpreter(assemble_ppc(source), specialize=False)
    interpreted.run(500_000)
    compiled = PpcInterpreter(assemble_ppc(source))
    compiled.run()
    _same_state(compiled, interpreted)
    return compiled


class TestCompiledIss:
    def test_arithmetic_block(self):
        differential("""
    mov r1, #10
    add r2, r1, #5
    sub r3, r2, r1
    mul r4, r3, r2
    orr r5, r4, #1
""")

    def test_flags_and_conditionals(self):
        differential("""
    mov r1, #5
    cmp r1, #5
    moveq r2, #1
    movne r3, #1
    adds r4, r1, r1
    adc  r5, r4, #0
    li   r6, 0xFFFFFFFF
    adds r7, r6, r6
    adc  r9, r1, #0
""")

    def test_shifts_and_rotates(self):
        differential("""
    li  r1, 0x80000001
    mov r2, r1, lsl #3
    mov r3, r1, lsr #3
    mov r4, r1, asr #3
    mov r5, r1, ror #8
""")

    def test_memory_and_byte_ops(self):
        differential("""
    li   r1, buf
    li   r2, 0xDEADBEEF
    str  r2, [r1]
    ldr  r3, [r1]
    ldrb r4, [r1, #2]
    strb r3, [r1, #8]
    ldr  r5, [r1, #8]
""", data="buf: .space 16")

    def test_loops_reuse_compiled_blocks(self):
        # the body spans two blocks, so each is dispatched per iteration
        # (a one-block loop runs in place, dispatched once)
        compiled = differential("""
    mov r1, #0
lp:
    add r1, r1, #1
    b   mid
mid:
    cmp r1, #50
    blt lp
    mov r0, r1
""")
        cache = compiled.decode_cache
        assert cache.block_hits > cache.block_misses
        assert all(block.compiled is not None for block in cache.blocks.values())

    def test_calls_and_long_multiply(self):
        differential("""
    li    r1, 0x12345678
    mov   r2, #100
    umull r3, r4, r1, r2
    smull r5, r6, r1, r2
    bl    fn
    b     end
fn:
    add   r7, r7, #1
    bx    lr
end:
    mov   r0, r7
""")

    def test_syscall_io(self):
        compiled = differential("""
    swi #3          ; getc -> 'A'
    swi #1          ; putc
    mov r0, #0
""", stdin=b"A")
        assert compiled.syscalls.output_text == "A"

    def test_undefined_instruction_raises(self):
        source = """
    .text
_start:
    .word 0xFFFFFFFF
"""
        # the plain interpreter raises ValueError for an undefined
        # encoding, and the compiled run raises exactly what it raises
        compiled = ArmInterpreter(assemble(source))
        with pytest.raises(ValueError, match="undefined instruction"):
            compiled.run()
        assert compiled.state.instret == 0

    def test_block_budget(self):
        compiled = ArmInterpreter(assemble("""
    .text
_start:
    b _start
"""))
        with pytest.raises(IssError, match="exceeded"):
            compiled.run(max_steps=50)
        assert compiled.state.instret == 50

    @pytest.mark.parametrize("name", ["gsm_dec", "g721_enc", "mpeg2_enc"])
    def test_mediabench_differential(self, name):
        from repro.workloads import mediabench

        source = mediabench.arm_source(name)
        interpreted = ArmInterpreter(assemble(source), specialize=False)
        interpreted.run()
        compiled = ArmInterpreter(assemble(source))
        compiled.run()
        _same_state(compiled, interpreted)

    def test_compiled_is_faster_on_hot_loops(self):
        import time

        from repro.workloads import mediabench

        source = mediabench.arm_source("gsm_enc", scale=8)
        interpreted = ArmInterpreter(assemble(source), specialize=False)
        start = time.perf_counter()
        interpreted.run()
        interpreted_time = time.perf_counter() - start
        compiled = ArmInterpreter(assemble(source))
        start = time.perf_counter()
        compiled.run()
        compiled_time = time.perf_counter() - start
        assert compiled_time < interpreted_time


@st.composite
def straightline(draw):
    lines = []
    for reg in range(1, 5):
        lines.append(f"    li r{reg}, {draw(st.integers(0, 0xFFFFFFFF))}")
    ops = st.sampled_from([
        "add", "adds", "sub", "subs", "and", "ands", "orr", "eor", "bic",
    ])
    for _ in range(draw(st.integers(2, 10))):
        op = draw(ops)
        lines.append(
            f"    {op} r{draw(st.integers(1, 6))}, "
            f"r{draw(st.integers(1, 6))}, r{draw(st.integers(1, 6))}"
        )
    lines.append("    adc r7, r1, #0")  # consume the final carry
    return "\n".join(lines)


@st.composite
def straightline_ppc(draw):
    lines = []
    for reg in range(4, 8):
        lines.append(f"    li32 r{reg}, {draw(st.integers(0, 0xFFFFFFFF))}")
    reg = st.integers(4, 10)
    ops = st.sampled_from([
        "add", "add.", "subf", "subf.", "and", "and.", "or", "xor.", "slw",
        "srw", "sraw.", "mullw", "mulhw", "divw", "divwu", "cmpw", "cmplw",
        "addi", "andi.", "rlwinm.", "srawi", "extsb.", "cntlzw",
    ])
    for _ in range(draw(st.integers(2, 10))):
        op = draw(ops)
        rt, ra, rb = draw(reg), draw(reg), draw(reg)
        if op in ("cmpw", "cmplw"):
            lines.append(f"    {op} r{ra}, r{rb}")
        elif op == "addi":
            lines.append(f"    addi r{rt}, r{ra}, {draw(st.integers(-0x8000, 0x7FFF))}")
        elif op == "andi.":
            lines.append(f"    andi. r{rt}, r{ra}, {draw(st.integers(0, 0xFFFF))}")
        elif op == "rlwinm.":
            sh, mb, me = (draw(st.integers(0, 31)) for _ in range(3))
            lines.append(f"    rlwinm. r{rt}, r{ra}, {sh}, {mb}, {me}")
        elif op == "srawi":
            lines.append(f"    srawi r{rt}, r{ra}, {draw(st.integers(0, 31))}")
        elif op in ("extsb.", "cntlzw"):
            lines.append(f"    {op} r{rt}, r{ra}")
        else:
            lines.append(f"    {op} r{rt}, r{ra}, r{rb}")
    # consume the final CR0 as a register value
    lines.append("    li r11, 0")
    lines.append("    beq cr_done")
    lines.append("    li r11, 1")
    lines.append("cr_done:")
    return "\n".join(lines)


class TestCompiledProperty:
    @settings(max_examples=25, deadline=None)
    @given(straightline())
    def test_random_alu_blocks_match_interpreter(self, body):
        differential(body + "\n    mov r0, #0")

    @settings(max_examples=25, deadline=None)
    @given(straightline_ppc())
    def test_random_ppc_alu_blocks_match_interpreter(self, body):
        differential_ppc(body + "\n    li r3, 0")
