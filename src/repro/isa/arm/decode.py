"""ARM-like instruction decoder.

Produces :class:`ArmInstruction` objects carrying both the raw fields and
the hazard metadata consumed by the micro-architecture models.  The models
pre-decode the whole text section once (a decode cache), so decode speed
matters less than decode *completeness* — every implemented encoding must
round-trip through :mod:`repro.isa.arm.encode`.
"""

from __future__ import annotations

from typing import Optional

from ..bits import bit, bits, sign_extend
from ..instruction import Instruction
from . import isa
from .isa import COND_NAMES, DP_NAMES, FLAGS_REG, PC, SHIFT_NAMES


class ArmInstruction(Instruction):
    """A decoded ARM-like instruction."""

    __slots__ = (
        "cond",
        "kind",
        "opcode",
        "s",
        "rn",
        "rd",
        "rm",
        "rs",
        "rdlo",
        "rdhi",
        "imm",
        "has_imm",
        "shift_type",
        "shift_amount",
        "byte",
        "up",
        "link",
        "signed_mul",
        "accumulate",
        "swi_number",
        "reads_flags",
        "sets_flags",
        "reglist",
        "pre_index",
        "writeback",
    )

    def __init__(self, addr: int, word: int):
        super().__init__(addr, word)
        self.cond = isa.COND_AL
        self.kind = "udf"
        self.opcode = 0
        self.s = 0
        self.rn = 0
        self.rd = 0
        self.rm = 0
        self.rs = 0
        self.rdlo = 0
        self.rdhi = 0
        self.imm = 0
        self.has_imm = False
        self.shift_type = 0
        self.shift_amount = 0
        self.byte = 0
        self.up = 1
        self.link = 0
        self.signed_mul = 0
        self.accumulate = 0
        self.swi_number = 0
        self.reads_flags = False
        self.sets_flags = False
        self.reglist = 0
        self.pre_index = 0
        self.writeback = 0

    @property
    def is_conditional(self) -> bool:
        return self.cond != isa.COND_AL


def decode(addr: int, word: int) -> ArmInstruction:
    """Decode one 32-bit instruction word."""
    instr = ArmInstruction(addr, word)
    instr.cond = bits(word, 31, 28)
    if instr.cond == 0xF:
        _finish_udf(instr)
        return instr

    top = bits(word, 27, 25)
    if top == 0b000 and bits(word, 7, 4) == 0b1001:
        if bits(word, 27, 23) == 0b00001:
            _decode_multiply_long(instr)
        elif bits(word, 27, 22) == 0:
            _decode_multiply(instr)
        else:
            _finish_udf(instr)
    elif (word & 0x0FFFFFF0) == 0x012FFF10:
        _decode_branch_exchange(instr)
    elif top in (0b000, 0b001):
        _decode_data_processing(instr)
    elif top in (0b010, 0b011):
        _decode_load_store(instr)
    elif top == 0b100:
        _decode_block_transfer(instr)
    elif top == 0b101:
        _decode_branch(instr)
    elif bits(word, 27, 24) == 0b1111:
        _decode_swi(instr)
    else:
        _finish_udf(instr)
    _attach_condition_metadata(instr)
    return instr


def _attach_condition_metadata(instr: ArmInstruction) -> None:
    if instr.is_conditional:
        instr.reads_flags = True
    if instr.reads_flags:
        instr.src_regs = instr.src_regs + (FLAGS_REG,)
    if instr.sets_flags:
        instr.dst_regs = instr.dst_regs + (FLAGS_REG,)


def _cond_suffix(instr: ArmInstruction) -> str:
    return COND_NAMES[instr.cond] if instr.is_conditional else ""


def _finish_udf(instr: ArmInstruction) -> None:
    instr.kind = "udf"
    instr.mnemonic = "udf"
    instr.text = f"udf {instr.word:#010x}"
    instr.unit = "system"


def _decode_data_processing(instr: ArmInstruction) -> None:
    word = instr.word
    instr.kind = "dp"
    instr.opcode = bits(word, 24, 21)
    instr.mnemonic = DP_NAMES[instr.opcode]
    instr.s = bit(word, 20)
    instr.rn = bits(word, 19, 16)
    instr.rd = bits(word, 15, 12)
    instr.has_imm = bool(bit(word, 25))
    sources = []
    if instr.mnemonic not in isa.DP_NO_RN:
        sources.append(instr.rn)
    if instr.has_imm:
        rotate = bits(word, 11, 8)
        imm8 = bits(word, 7, 0)
        from ..bits import ror32

        instr.imm = ror32(imm8, 2 * rotate)
        operand2 = f"#{instr.imm}"
    else:
        instr.rm = bits(word, 3, 0)
        instr.shift_type = bits(word, 6, 5)
        instr.shift_amount = bits(word, 11, 7)
        sources.append(instr.rm)
        operand2 = f"r{instr.rm}"
        if instr.shift_amount or instr.shift_type:
            operand2 += f", {SHIFT_NAMES[instr.shift_type]} #{instr.shift_amount}"
    no_dest = instr.mnemonic in isa.DP_NO_DEST
    instr.sets_flags = bool(instr.s) or no_dest
    # ADC/SBC/RSC consume the carry flag even when unconditional.
    if instr.mnemonic in ("adc", "sbc", "rsc"):
        instr.reads_flags = True
    # RRX (register form, ROR #0) shifts the incoming carry into bit 31.
    if not instr.has_imm and instr.shift_type == 3 and instr.shift_amount == 0:
        instr.reads_flags = True
    # Flag-setting logical ops take C from the barrel shifter, which for
    # rotate-0 immediates and LSL #0 passes the *incoming* carry through.
    if instr.mnemonic in isa.DP_LOGICAL and instr.sets_flags and (
        (instr.has_imm and instr.imm <= 0xFF)
        or (not instr.has_imm and instr.shift_type == 0 and instr.shift_amount == 0)
    ):
        instr.reads_flags = True
    if not no_dest:
        instr.dst_regs = (instr.rd,)
        if instr.rd == PC:
            instr.writes_pc = True
            instr.is_branch = True
            instr.unit = "branch"
    instr.src_regs = tuple(sources)
    suffix = _cond_suffix(instr) + ("s" if instr.s and not no_dest else "")
    if no_dest:
        instr.text = f"{instr.mnemonic}{suffix} r{instr.rn}, {operand2}"
    elif instr.mnemonic in isa.DP_NO_RN:
        instr.text = f"{instr.mnemonic}{suffix} r{instr.rd}, {operand2}"
    else:
        instr.text = f"{instr.mnemonic}{suffix} r{instr.rd}, r{instr.rn}, {operand2}"


def _decode_multiply(instr: ArmInstruction) -> None:
    word = instr.word
    instr.kind = "mul"
    instr.unit = "mul"
    instr.accumulate = bit(word, 21)
    instr.s = bit(word, 20)
    instr.rd = bits(word, 19, 16)
    instr.rn = bits(word, 15, 12)
    instr.rs = bits(word, 11, 8)
    instr.rm = bits(word, 3, 0)
    instr.mnemonic = "mla" if instr.accumulate else "mul"
    instr.sets_flags = bool(instr.s)
    sources = [instr.rm, instr.rs]
    if instr.accumulate:
        sources.append(instr.rn)
    instr.src_regs = tuple(sources)
    instr.dst_regs = (instr.rd,)
    suffix = _cond_suffix(instr) + ("s" if instr.s else "")
    if instr.accumulate:
        instr.text = f"mla{suffix} r{instr.rd}, r{instr.rm}, r{instr.rs}, r{instr.rn}"
    else:
        instr.text = f"mul{suffix} r{instr.rd}, r{instr.rm}, r{instr.rs}"


def _decode_multiply_long(instr: ArmInstruction) -> None:
    word = instr.word
    instr.kind = "mull"
    instr.unit = "mul"
    instr.signed_mul = bit(word, 22)
    instr.accumulate = bit(word, 21)
    instr.s = bit(word, 20)
    instr.rdhi = bits(word, 19, 16)
    instr.rdlo = bits(word, 15, 12)
    instr.rs = bits(word, 11, 8)
    instr.rm = bits(word, 3, 0)
    base = "smull" if instr.signed_mul else "umull"
    if instr.accumulate:
        base = "smlal" if instr.signed_mul else "umlal"
    instr.mnemonic = base
    instr.sets_flags = bool(instr.s)
    sources = [instr.rm, instr.rs]
    if instr.accumulate:
        sources.extend((instr.rdlo, instr.rdhi))
    instr.src_regs = tuple(sources)
    instr.dst_regs = (instr.rdlo, instr.rdhi)
    suffix = _cond_suffix(instr) + ("s" if instr.s else "")
    instr.text = f"{base}{suffix} r{instr.rdlo}, r{instr.rdhi}, r{instr.rm}, r{instr.rs}"


def _decode_load_store(instr: ArmInstruction) -> None:
    word = instr.word
    instr.kind = "ldst"
    instr.unit = "mem"
    load = bit(word, 20)
    instr.byte = bit(word, 22)
    instr.up = bit(word, 23)
    instr.rn = bits(word, 19, 16)
    instr.rd = bits(word, 15, 12)
    instr.is_load = bool(load)
    instr.is_store = not load
    base = ("ldr" if load else "str") + ("b" if instr.byte else "")
    instr.mnemonic = base
    sources = [instr.rn]
    if bit(word, 25):
        instr.has_imm = False
        instr.rm = bits(word, 3, 0)
        instr.shift_type = bits(word, 6, 5)
        instr.shift_amount = bits(word, 11, 7)
        sources.append(instr.rm)
        offset_text = f"{'' if instr.up else '-'}r{instr.rm}"
        if instr.shift_amount:
            offset_text += f", {SHIFT_NAMES[instr.shift_type]} #{instr.shift_amount}"
    else:
        instr.has_imm = True
        magnitude = bits(word, 11, 0)
        instr.imm = magnitude if instr.up else -magnitude
        offset_text = f"#{instr.imm}" if instr.imm else ""
    if load:
        instr.dst_regs = (instr.rd,)
        if instr.rd == PC:
            instr.writes_pc = True
            instr.is_branch = True
    else:
        sources.append(instr.rd)
    instr.src_regs = tuple(sources)
    suffix = _cond_suffix(instr)
    address = f"[r{instr.rn}, {offset_text}]" if offset_text else f"[r{instr.rn}]"
    instr.text = f"{base}{suffix} r{instr.rd}, {address}"


def _decode_block_transfer(instr: ArmInstruction) -> None:
    word = instr.word
    instr.kind = "ldm"
    instr.unit = "mem"
    load = bit(word, 20)
    instr.pre_index = bit(word, 24)
    instr.up = bit(word, 23)
    instr.writeback = bit(word, 21)
    instr.rn = bits(word, 19, 16)
    instr.reglist = bits(word, 15, 0)
    registers = [r for r in range(16) if instr.reglist & (1 << r)]
    instr.is_load = bool(load)
    instr.is_store = not load
    instr.mnemonic = "ldm" if load else "stm"
    sources = [instr.rn]
    if load:
        dests = list(registers)
        if PC in registers:
            instr.writes_pc = True
            instr.is_branch = True
    else:
        dests = []
        sources.extend(registers)
    if instr.writeback:
        dests.append(instr.rn)
    instr.src_regs = tuple(sources)
    instr.dst_regs = tuple(dict.fromkeys(dests))
    mode = {(1, 1): "ib", (0, 1): "ia", (1, 0): "db", (0, 0): "da"}[
        (instr.pre_index, instr.up)
    ]
    reg_names = ", ".join(f"r{r}" for r in registers)
    bang = "!" if instr.writeback else ""
    instr.text = (
        f"{instr.mnemonic}{mode}{_cond_suffix(instr)} r{instr.rn}{bang}, "
        f"{{{reg_names}}}"
    )


def _decode_branch(instr: ArmInstruction) -> None:
    word = instr.word
    instr.kind = "branch"
    instr.unit = "branch"
    instr.link = bit(word, 24)
    instr.imm = sign_extend(bits(word, 23, 0), 24) << 2
    instr.mnemonic = "bl" if instr.link else "b"
    instr.is_branch = True
    instr.writes_pc = True
    if instr.link:
        instr.dst_regs = (isa.LR,)
    target = instr.addr + 8 + instr.imm
    instr.text = f"{instr.mnemonic}{_cond_suffix(instr)} {target:#x}"

    instr.src_regs = ()


def _decode_branch_exchange(instr: ArmInstruction) -> None:
    word = instr.word
    instr.kind = "bx"
    instr.unit = "branch"
    instr.rm = bits(word, 3, 0)
    instr.mnemonic = "bx"
    instr.is_branch = True
    instr.writes_pc = True
    instr.src_regs = (instr.rm,)
    instr.text = f"bx{_cond_suffix(instr)} r{instr.rm}"


def _decode_swi(instr: ArmInstruction) -> None:
    word = instr.word
    instr.kind = "swi"
    instr.unit = "system"
    instr.swi_number = bits(word, 23, 0)
    instr.mnemonic = "swi"
    # The syscall convention passes arguments in r0..r2 and returns in r0.
    instr.src_regs = (0, 1, 2)
    instr.dst_regs = (0,)
    instr.text = f"swi{_cond_suffix(instr)} #{instr.swi_number}"


def branch_target(instr: ArmInstruction) -> Optional[int]:
    """Static branch target for direct branches, None for indirect."""
    if instr.kind == "branch":
        return (instr.addr + 8 + instr.imm) & 0xFFFFFFFF
    return None
