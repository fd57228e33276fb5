"""Tests for ARM encode/decode round-trips and mnemonic parsing."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.arm import assemble, decode, parse_mnemonic
from repro.isa.arm import encode
from repro.isa.arm.isa import COND_AL, CONDITIONS, DP_OPCODES, FLAGS_REG, LR, PC

regs = st.integers(min_value=0, max_value=14)  # avoid PC special cases
conds = st.sampled_from(sorted(set(CONDITIONS.values())))


class TestMnemonicParsing:
    @pytest.mark.parametrize("text,expected", [
        ("add", ("add", COND_AL, 0)),
        ("adds", ("add", COND_AL, 1)),
        ("addeq", ("add", CONDITIONS["eq"], 0)),
        ("addeqs", ("add", CONDITIONS["eq"], 1)),
        ("blt", ("b", CONDITIONS["lt"], 0)),       # NOT bl + t
        ("bllt", ("bl", CONDITIONS["lt"], 0)),
        ("bls", ("b", CONDITIONS["ls"], 0)),       # branches take no S
        ("bl", ("bl", COND_AL, 0)),
        ("bic", ("bic", COND_AL, 0)),              # not b + ic
        ("bics", ("bic", COND_AL, 1)),
        ("bxne", ("bx", CONDITIONS["ne"], 0)),
        ("movs", ("mov", COND_AL, 1)),
        ("mulne", ("mul", CONDITIONS["ne"], 0)),
        ("smulls", ("smull", COND_AL, 1)),
        ("ldrb", ("ldrb", COND_AL, 0)),
        ("ldrbne", ("ldrb", CONDITIONS["ne"], 0)),
        ("swi", ("swi", COND_AL, 0)),
    ])
    def test_known(self, text, expected):
        assert parse_mnemonic(text) == expected

    @pytest.mark.parametrize("text", ["frob", "addx", "bxs", "swis"])
    def test_unknown(self, text):
        assert parse_mnemonic(text) is None


class TestRotatedImmediate:
    @pytest.mark.parametrize("value", [0, 1, 0xFF, 0x100, 0xFF000000, 0x3FC, 0xC000003F])
    def test_encodable(self, value):
        rotate, imm8 = encode.encode_rotated_immediate(value)
        from repro.isa.bits import ror32

        assert ror32(imm8, 2 * rotate) == value

    @pytest.mark.parametrize("value", [0x101, 0xFFFF, 0x102030])
    def test_not_encodable(self, value):
        assert encode.encode_rotated_immediate(value) is None


class TestRoundTrip:
    @given(conds, st.sampled_from(sorted(DP_OPCODES.values())), regs, regs,
           st.integers(min_value=0, max_value=1))
    def test_dp_immediate(self, cond, opcode, rn, rd, s):
        word = encode.dp_immediate(cond, opcode, s, rn, rd, 0xFF)
        instr = decode(0x8000, word)
        assert instr.kind == "dp"
        assert instr.cond == cond
        assert instr.opcode == opcode
        assert instr.imm == 0xFF

    @given(conds, regs, regs, regs,
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=31))
    def test_dp_register_with_shift(self, cond, rd, rn, rm, shift_type, amount):
        word = encode.dp_register(cond, DP_OPCODES["add"], 0, rn, rd, rm,
                                  shift_type, amount)
        instr = decode(0, word)
        assert (instr.rd, instr.rn, instr.rm) == (rd, rn, rm)
        assert instr.shift_type == shift_type
        assert instr.shift_amount == amount
        assert not instr.has_imm

    @given(conds, regs, regs, regs)
    def test_multiply(self, cond, rd, rm, rs):
        word = encode.multiply(cond, 0, 0, rd, 0, rs, rm)
        instr = decode(0, word)
        assert instr.kind == "mul"
        assert instr.mnemonic == "mul"
        assert (instr.rd, instr.rm, instr.rs) == (rd, rm, rs)
        assert instr.unit == "mul"

    @given(regs, regs, regs, regs)
    def test_multiply_long(self, rdlo, rdhi, rm, rs):
        word = encode.multiply_long(COND_AL, 1, 0, 0, rdhi, rdlo, rs, rm)
        instr = decode(0, word)
        assert instr.kind == "mull"
        assert instr.mnemonic == "smull"
        assert (instr.rdlo, instr.rdhi) == (rdlo, rdhi)
        assert set(instr.dst_regs) == {rdlo, rdhi}

    @given(regs, regs, st.integers(min_value=-4095, max_value=4095))
    def test_load_store_immediate(self, rn, rd, offset):
        word = encode.load_store_immediate(COND_AL, 1, 0, rn, rd, offset)
        instr = decode(0, word)
        assert instr.kind == "ldst"
        assert instr.is_load
        assert instr.imm == offset
        assert instr.rn == rn and instr.rd == rd

    @pytest.mark.parametrize("load,byte", [(0, 0), (1, 1)])
    @pytest.mark.parametrize("up", [0, 1])
    @pytest.mark.parametrize("shift_type,amount", [(0, 0), (0, 2), (2, 31)])
    def test_register_offset_listing_reassembles(self, load, byte, up, shift_type, amount):
        """The listing keeps the sign of a register offset (``[r1, -r3]``)."""
        word = encode.load_store_register(COND_AL, load, byte, 1, 2, 3,
                                          shift_type, amount, up)
        text = decode(0x8000, word).text
        assert ("-r3" in text) == (not up)
        assert assemble(text).text_words() == [(0x8000, word)]

    @given(st.integers(min_value=-(1 << 23), max_value=(1 << 23) - 1))
    def test_branch_offset(self, words_offset):
        word = encode.branch(COND_AL, 0, words_offset)
        instr = decode(0x8000, word)
        assert instr.kind == "branch"
        assert instr.imm == words_offset * 4

    def test_branch_exchange(self):
        word = encode.branch_exchange(COND_AL, 14)
        instr = decode(0, word)
        assert instr.kind == "bx"
        assert instr.rm == 14
        assert instr.src_regs == (14,)

    @given(st.integers(min_value=0, max_value=(1 << 24) - 1))
    def test_swi(self, number):
        instr = decode(0, encode.software_interrupt(COND_AL, number))
        assert instr.kind == "swi"
        assert instr.swi_number == number


class TestHazardMetadata:
    def test_flags_flow_through_pseudo_register(self):
        cmp_word = encode.dp_immediate(COND_AL, DP_OPCODES["cmp"], 1, 1, 0, 0)
        cmp_instr = decode(0, cmp_word)
        assert FLAGS_REG in cmp_instr.dst_regs
        beq_word = encode.branch(CONDITIONS["eq"], 0, 2)
        beq_instr = decode(0, beq_word)
        assert FLAGS_REG in beq_instr.src_regs

    def test_adc_reads_flags_even_unconditional(self):
        word = encode.dp_register(COND_AL, DP_OPCODES["adc"], 0, 1, 0, 2)
        assert FLAGS_REG in decode(0, word).src_regs

    def test_store_reads_its_data_register(self):
        word = encode.load_store_immediate(COND_AL, 0, 0, 1, 2, 4)
        instr = decode(0, word)
        assert instr.is_store
        assert 2 in instr.src_regs
        assert instr.dst_regs == ()

    def test_bl_writes_link_register(self):
        instr = decode(0, encode.branch(COND_AL, 1, 0))
        assert LR in instr.dst_regs

    def test_mov_to_pc_is_a_branch(self):
        word = encode.dp_register(COND_AL, DP_OPCODES["mov"], 0, 0, PC, 1)
        instr = decode(0, word)
        assert instr.writes_pc and instr.is_branch

    def test_undefined_word_decodes_to_udf(self):
        instr = decode(0, 0xF7FFFFFF)
        assert instr.mnemonic == "udf"
