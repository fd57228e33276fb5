"""Tests for ARM LDM/STM block transfers, across every execution engine."""

import pytest

from repro.baselines.simplescalar import SimpleScalarArm
from repro.isa.arm import assemble, decode, encode
from repro.iss import ArmInterpreter
from repro.models.strongarm import StrongArmModel

from ..conftest import arm_program


def run_everywhere(body: str, data: str = ""):
    """Run through the plain ISS, the compiled ISS (``run()``'s block
    functions), OSM model and the hand-coded baseline; assert full
    agreement; return the interpreter."""
    source = arm_program(body, data)
    iss = ArmInterpreter(assemble(source), specialize=False)
    iss.run(200_000)
    compiled = ArmInterpreter(assemble(source))
    compiled.run()
    model = StrongArmModel(assemble(source), perfect_memory=True)
    model.run()
    baseline = SimpleScalarArm(assemble(source))
    baseline.run()
    assert compiled.state.exit_code == iss.state.exit_code
    assert compiled.state.regs.values == iss.state.regs.values
    assert model.exit_code == iss.state.exit_code
    assert baseline.exit_code == iss.state.exit_code
    assert model.cycles == baseline.cycles
    return iss


class TestEncodingModes:
    @pytest.mark.parametrize("mnemonic,pre,up", [
        ("ldmia", 0, 1), ("ldmib", 1, 1), ("ldmda", 0, 0), ("ldmdb", 1, 0),
    ])
    def test_mode_roundtrip(self, mnemonic, pre, up):
        word = encode.block_transfer(14, 1, 2, 0b10110, pre=pre, up=up, writeback=1)
        instr = decode(0, word)
        assert instr.kind == "ldm"
        assert (instr.pre_index, instr.up) == (pre, up)
        assert instr.writeback == 1
        assert instr.reglist == 0b10110

    def test_empty_register_list_rejected(self):
        with pytest.raises(ValueError):
            encode.block_transfer(14, 1, 0, 0, 0, 1, 0)

    def test_store_reads_its_registers(self):
        word = encode.block_transfer(14, 0, 1, 0b1100, pre=0, up=1, writeback=0)
        instr = decode(0, word)
        assert instr.is_store
        assert 2 in instr.src_regs and 3 in instr.src_regs
        assert instr.dst_regs == ()

    def test_load_with_writeback_writes_base(self):
        word = encode.block_transfer(14, 1, 5, 0b11, pre=0, up=1, writeback=1)
        instr = decode(0, word)
        assert 5 in instr.dst_regs


class TestSemantics:
    def test_ia_stores_lowest_register_lowest_address(self):
        iss = run_everywhere("""
    li    r1, buf
    mov   r4, #0x11
    mov   r5, #0x22
    stmia r1, {r4, r5}
    ldr   r2, [r1]
    ldr   r3, [r1, #4]
    mov   r0, #0
""", data="buf: .space 16")
        assert iss.state.regs.values[2] == 0x11
        assert iss.state.regs.values[3] == 0x22

    def test_push_pop_are_full_descending(self):
        iss = run_everywhere("""
    mov  sp, #0x8000
    mov  r4, #7
    mov  r5, #8
    push {r4, r5}
    sub  r6, sp, #0      ; sp moved down by 8
    pop  {r1, r2}
    mov  r0, r1
""")
        regs = iss.state.regs.values
        assert regs[6] == 0x8000 - 8
        assert regs[1] == 7 and regs[2] == 8
        assert regs[13] == 0x8000  # sp restored

    def test_writeback_updates_base(self):
        iss = run_everywhere("""
    li    r1, buf
    mov   r4, #1
    mov   r5, #2
    stmia r1!, {r4, r5}
    li    r2, buf + 8
    sub   r0, r1, r2     ; r1 advanced by 8 -> 0
""", data="buf: .space 16")
        assert iss.state.exit_code == 0

    def test_return_via_pop_pc(self):
        iss = run_everywhere("""
    mov  sp, #0x8000
    bl   fn
    add  r0, r0, #1
    b    done
fn:
    push {lr}
    mov  r0, #10
    pop  {pc}
done:
    nop
""")
        assert iss.state.exit_code == 11

    def test_block_transfer_timing_scales_with_count(self):
        def cycles(body, data=""):
            model = StrongArmModel(
                assemble(arm_program(body, data)), perfect_memory=True
            )
            model.run()
            return model.cycles

        two = cycles("""
    li    r1, buf
    stmia r1, {r4, r5}
""", "buf: .space 64")
        eight = cycles("""
    li    r1, buf
    stmia r1, {r4-r11}
""", "buf: .space 64")
        assert eight - two == 6  # one extra beat per extra register
