"""Specialised per-instruction executors for the ARM-like target.

:func:`bind_block` runs when the interpreter's fetch path
(``fetch_decode``, which ``step()`` and the timing models use) builds a
basic block: given the block's instructions, it translates each one
to a dedicated Python function ``fn(state) -> ExecInfo`` — register
numbers, immediates, shift amounts, condition tests and the sequential
PC become literals — compiles the whole block's functions as *one*
compile unit (amortising ``compile()`` over the block, and paying it once
per process for each distinct block text, see :mod:`repro.codecache`),
and attaches them as ``instr.exec_fn``.

Each executor mirrors :func:`repro.isa.arm.semantics.execute` exactly,
including the ExecInfo protocol (``next_pc``/``taken``/``mem_addr``/
``mem_addrs``/``mem_is_store``/``mul_operand``) the timing models
consume, so callers may use ``instr.exec_fn or semantics.execute``
interchangeably; the semantics module stays the executable reference and
the differential tests lock the two together.  Instructions the
translator does not cover (``udf``) keep ``exec_fn = None`` and fall
back to the interpreter.

Unlike the whole-block translator in :mod:`repro.iss.compiled`, these
executors are position-independent (one instruction, flags in
architectural state), so an instruction shared by two overlapping blocks
binds once and both blocks reuse it.
"""

from __future__ import annotations

from typing import List, Optional

from ...codecache import compile_cached
from ..bits import add_carries, sub_borrows
from .decode import ArmInstruction
from .isa import PC
from .semantics import ExecInfo

#: condition-code tests over the architectural flags (AL/NV omitted)
_COND_EXPR = {
    0x0: "state.flag_z == 1",
    0x1: "state.flag_z == 0",
    0x2: "state.flag_c == 1",
    0x3: "state.flag_c == 0",
    0x4: "state.flag_n == 1",
    0x5: "state.flag_n == 0",
    0x6: "state.flag_v == 1",
    0x7: "state.flag_v == 0",
    0x8: "state.flag_c == 1 and state.flag_z == 0",
    0x9: "state.flag_c == 0 or state.flag_z == 1",
    0xA: "state.flag_n == state.flag_v",
    0xB: "state.flag_n != state.flag_v",
    0xC: "state.flag_z == 0 and state.flag_n == state.flag_v",
    0xD: "state.flag_z == 1 or state.flag_n != state.flag_v",
}

_LOGICAL = frozenset(("and", "eor", "tst", "teq", "orr", "mov", "bic", "mvn"))


def ends_block(instr) -> bool:
    """Block-ender predicate (re-exported for API symmetry; the decode
    cache's generic metadata predicate makes the same decision)."""
    return instr.is_branch or instr.writes_pc or instr.unit == "system"


class _Emitter:
    """Accumulates the source of one executor function."""

    def __init__(self, name: str, instr: ArmInstruction):
        self.instr = instr
        self.seq = (instr.addr + 4) & 0xFFFFFFFF
        self._lines: List[str] = [f"def {name}(state):", "    r = state.regs.values"]
        self._indent = 1
        #: True when the instruction computes next_pc at run time
        self.dynamic_pc = False

    def emit(self, text: str) -> None:
        self._lines.append("    " * self._indent + text)

    def reg(self, reg: int) -> str:
        """Register-read expression (PC reads as addr+8)."""
        if reg == PC:
            return str((self.instr.addr + 8) & 0xFFFFFFFF)
        return f"r[{reg}]"

    def source(self) -> str:
        if self.dynamic_pc:
            self.emit("state.pc = info.next_pc")
        self.emit("return info")
        return "\n".join(self._lines)


def _translate(instr: ArmInstruction, name: str) -> Optional[str]:
    """Source of the executor for *instr*, or None when unsupported."""
    kind = instr.kind
    if kind == "udf":
        return None
    e = _Emitter(name, instr)
    guard = _COND_EXPR.get(instr.cond)
    if guard is not None:
        e.emit(f"if not ({guard}):")
        e.emit(f"    state.pc = {e.seq}")
        e.emit(f"    return ExecInfo(False, {e.seq})")
    e.emit(f"info = ExecInfo(True, {e.seq})")
    if kind == "dp":
        _emit_dp(e, instr)
    elif kind == "mul":
        _emit_mul(e, instr)
    elif kind == "mull":
        _emit_mull(e, instr)
    elif kind == "ldst":
        _emit_ldst(e, instr)
    elif kind == "ldm":
        _emit_block_transfer(e, instr)
    elif kind == "branch":
        if instr.link:
            e.emit(f"r[14] = {e.seq}")
        target = (instr.addr + 8 + instr.imm) & 0xFFFFFFFF
        e.emit(f"info.next_pc = {target}")
        e.emit("info.taken = True")
        e.emit(f"state.pc = {target}")
    elif kind == "bx":
        e.emit(f"_t = {e.reg(instr.rm)} & 0xFFFFFFFE")
        e.emit("info.next_pc = _t")
        e.emit("info.taken = True")
        e.emit("state.pc = _t")
    elif kind == "swi":
        e.emit(f"state.syscalls.handle(state, {instr.swi_number})")
        e.emit(f"state.pc = {e.seq}")
    else:
        return None
    if kind in ("dp", "mul", "mull", "ldst", "ldm"):
        if not e.dynamic_pc:
            e.emit(f"state.pc = {e.seq}")
    return e.source()


def _shifter(e: _Emitter, instr: ArmInstruction):
    """Emit operand2 into ``_o``; returns the carry-out expression
    (mirrors ``semantics._shifter_operand``)."""
    if instr.has_imm:
        e.emit(f"_o = {instr.imm}")
        if instr.imm > 0xFF:
            return str((instr.imm >> 31) & 1)
        return "state.flag_c"
    e.emit(f"_m = {e.reg(instr.rm)}")
    amount = instr.shift_amount
    shift_type = instr.shift_type
    if shift_type == 0:  # LSL
        if amount == 0:
            e.emit("_o = _m")
            return "state.flag_c"
        e.emit(f"_o = (_m << {amount}) & 0xFFFFFFFF")
        return f"(_m >> {32 - amount}) & 1"
    if shift_type == 1:  # LSR (amount 0 encodes 32)
        amount = amount or 32
        if amount == 32:
            e.emit("_o = 0")
        else:
            e.emit(f"_o = _m >> {amount}")
        return f"(_m >> {amount - 1}) & 1"
    if shift_type == 2:  # ASR (amount 0 encodes 32)
        amount = amount or 32
        e.emit("_sm = _m - 0x100000000 if _m & 0x80000000 else _m")
        if amount >= 32:
            e.emit("_o = 0xFFFFFFFF if _m & 0x80000000 else 0")
        else:
            e.emit(f"_o = (_sm >> {amount}) & 0xFFFFFFFF")
        return f"(_sm >> {min(amount - 1, 31)}) & 1"
    # ROR (amount 0 encodes RRX)
    if amount == 0:
        e.emit("_o = ((state.flag_c << 31) | (_m >> 1)) & 0xFFFFFFFF")
        return "_m & 1"
    e.emit(f"_o = ((_m >> {amount}) | (_m << {32 - amount})) & 0xFFFFFFFF")
    return "(_o >> 31) & 1"


def _emit_dp(e: _Emitter, instr: ArmInstruction) -> None:
    mnemonic = instr.mnemonic
    shifter_carry = _shifter(e, instr)
    rn = e.reg(instr.rn)
    arith = None
    if mnemonic in ("and", "tst"):
        result = f"{rn} & _o"
    elif mnemonic in ("eor", "teq"):
        result = f"{rn} ^ _o"
    elif mnemonic in ("sub", "cmp"):
        arith, plain = f"_sub({rn}, _o)", f"{rn} - _o"
    elif mnemonic == "rsb":
        arith, plain = f"_sub(_o, {rn})", f"_o - {rn}"
    elif mnemonic in ("add", "cmn"):
        arith, plain = f"_add({rn}, _o)", f"{rn} + _o"
    elif mnemonic == "adc":
        arith, plain = (f"_add({rn}, _o, state.flag_c)",
                        f"{rn} + _o + state.flag_c")
    elif mnemonic == "sbc":
        arith, plain = (f"_sub({rn}, _o, state.flag_c)",
                        f"{rn} - _o - 1 + state.flag_c")
    elif mnemonic == "rsc":
        arith, plain = (f"_sub(_o, {rn}, state.flag_c)",
                        f"_o - {rn} - 1 + state.flag_c")
    elif mnemonic == "orr":
        result = f"{rn} | _o"
    elif mnemonic == "mov":
        result = "_o"
    elif mnemonic == "bic":
        result = f"{rn} & ~_o"
    else:  # mvn
        result = "~_o"

    if arith is not None:
        if instr.sets_flags:
            e.emit(f"_t, _c, _v = {arith}")
        else:
            e.emit(f"_t = ({plain}) & 0xFFFFFFFF")
    else:
        e.emit(f"_t = ({result}) & 0xFFFFFFFF")
    if instr.sets_flags:
        e.emit("state.flag_n = (_t >> 31) & 1")
        e.emit("state.flag_z = 1 if _t == 0 else 0")
        if arith is not None:
            e.emit("state.flag_c = _c")
            e.emit("state.flag_v = _v")
        elif mnemonic in _LOGICAL and shifter_carry != "state.flag_c":
            e.emit(f"state.flag_c = {shifter_carry}")
    if instr.dst_regs and instr.dst_regs[0] != 16:
        if instr.rd == PC:
            e.emit("info.next_pc = _t & 0xFFFFFFFC")
            e.emit("info.taken = True")
            e.dynamic_pc = True
        else:
            e.emit(f"r[{instr.rd}] = _t")


def _emit_mul(e: _Emitter, instr: ArmInstruction) -> None:
    e.emit(f"_s = {e.reg(instr.rs)}")
    e.emit("info.mul_operand = _s")
    expr = f"{e.reg(instr.rm)} * _s"
    if instr.accumulate:
        expr += f" + {e.reg(instr.rn)}"
    e.emit(f"_t = ({expr}) & 0xFFFFFFFF")
    e.emit(f"r[{instr.rd}] = _t")
    if instr.s:
        e.emit("state.flag_n = (_t >> 31) & 1")
        e.emit("state.flag_z = 1 if _t == 0 else 0")


def _emit_mull(e: _Emitter, instr: ArmInstruction) -> None:
    e.emit(f"_m = {e.reg(instr.rm)}")
    e.emit(f"_s = {e.reg(instr.rs)}")
    e.emit("info.mul_operand = _s")
    if instr.signed_mul:
        e.emit("_p = ((_m - 0x100000000 if _m & 0x80000000 else _m)"
               " * (_s - 0x100000000 if _s & 0x80000000 else _s))")
    else:
        e.emit("_p = _m * _s")
    if instr.accumulate:
        e.emit(f"_acc = (r[{instr.rdhi}] << 32) | r[{instr.rdlo}]")
        if instr.signed_mul:
            e.emit("if _acc & 0x8000000000000000:")
            e.emit("    _acc -= 0x10000000000000000")
        e.emit("_p += _acc")
    e.emit("_p &= 0xFFFFFFFFFFFFFFFF")
    e.emit(f"r[{instr.rdlo}] = _p & 0xFFFFFFFF")
    e.emit(f"r[{instr.rdhi}] = (_p >> 32) & 0xFFFFFFFF")
    if instr.s:
        e.emit("state.flag_n = (_p >> 63) & 1")
        e.emit("state.flag_z = 1 if _p == 0 else 0")


def _mem_offset(e: _Emitter, instr: ArmInstruction) -> str:
    """Offset expression for single loads/stores (register form shifts by
    a constant amount; mirrors ``semantics._execute_ldst``)."""
    if instr.has_imm:
        return str(instr.imm)
    value = e.reg(instr.rm)
    amount = instr.shift_amount
    shift_type = instr.shift_type
    if shift_type == 0:
        expr = value if amount == 0 else f"(({value} << {amount}) & 0xFFFFFFFF)"
    elif shift_type == 1:
        amount = amount or 32
        expr = "0" if amount == 32 else f"({value} >> {amount})"
    elif shift_type == 2:
        amount = amount or 32
        if amount >= 32:
            expr = f"(0xFFFFFFFF if {value} & 0x80000000 else 0)"
        else:
            expr = (f"((({value} - 0x100000000 if {value} & 0x80000000"
                    f" else {value}) >> {amount}) & 0xFFFFFFFF)")
    else:
        amount = instr.shift_amount & 31
        if amount == 0:
            expr = value
        else:
            expr = (f"((({value} >> {amount}) | ({value} << {32 - amount}))"
                    " & 0xFFFFFFFF)")
    return expr if instr.up else f"-{expr}"


def _emit_ldst(e: _Emitter, instr: ArmInstruction) -> None:
    e.emit(f"_a = ({e.reg(instr.rn)} + {_mem_offset(e, instr)}) & 0xFFFFFFFF")
    e.emit("info.mem_addr = _a")
    if instr.is_load:
        if instr.byte:
            e.emit("_t = state.memory.read_byte(_a)")
        else:
            e.emit("_t = state.memory.read_word(_a & 0xFFFFFFFC)")
        if instr.rd == PC:
            e.emit("info.next_pc = _t & 0xFFFFFFFC")
            e.emit("info.taken = True")
            e.dynamic_pc = True
        else:
            e.emit(f"r[{instr.rd}] = _t")
    else:
        e.emit("info.mem_is_store = True")
        value = e.reg(instr.rd)
        if instr.byte:
            e.emit(f"state.memory.write_byte(_a, {value} & 0xFF)")
        else:
            e.emit(f"state.memory.write_word(_a & 0xFFFFFFFC, {value})")


def _emit_block_transfer(e: _Emitter, instr: ArmInstruction) -> None:
    """LDM/STM unrolled at translation time (the register list and
    addressing mode are static); lowest register at the lowest address."""
    registers = [r for r in range(16) if instr.reglist & (1 << r)]
    count = len(registers)
    if count == 0:
        e.emit("info.mem_addrs = []")
        return
    e.emit(f"_b = {e.reg(instr.rn)}")
    if instr.up:
        start_off = 4 if instr.pre_index else 0
        new_base = f"(_b + {4 * count}) & 0xFFFFFFFF"
    else:
        start_off = -4 * count + (0 if instr.pre_index else 4)
        new_base = f"(_b - {4 * count}) & 0xFFFFFFFF"
    e.emit(f"_a = (_b + {start_off}) & 0xFFFFFFFF")
    addr_items = ", ".join(
        "_a" if i == 0 else f"(_a + {4 * i}) & 0xFFFFFFFF" for i in range(count)
    )
    e.emit(f"_addrs = [{addr_items}]")
    e.emit("info.mem_addr = _a")
    e.emit("info.mem_addrs = _addrs")
    e.emit("mem = state.memory")
    if instr.is_load:
        loads_pc = False
        for i, reg in enumerate(registers):
            source = f"mem.read_word(_addrs[{i}] & 0xFFFFFFFC)"
            if reg == PC:
                e.emit(f"_t = {source}")
                loads_pc = True
            else:
                e.emit(f"r[{reg}] = {source}")
        if instr.writeback and not (instr.reglist & (1 << instr.rn)):
            e.emit(f"r[{instr.rn}] = {new_base}")
        if loads_pc:
            e.emit("info.next_pc = _t & 0xFFFFFFFC")
            e.emit("info.taken = True")
            e.dynamic_pc = True
    else:
        e.emit("info.mem_is_store = True")
        for i, reg in enumerate(registers):
            e.emit(f"mem.write_word(_addrs[{i}] & 0xFFFFFFFC, {e.reg(reg)})")
        if instr.writeback:
            e.emit(f"r[{instr.rn}] = {new_base}")


def bind_block(instrs: List[ArmInstruction]) -> None:
    """Attach ``exec_fn`` executors to every supported instruction of a
    basic block, compiling the block's functions as one unit."""
    sources = []
    bound = []
    for index, instr in enumerate(instrs):
        if instr.exec_fn is not None:
            continue  # shared with a previously-built overlapping block
        name = f"_x{index}"
        source = _translate(instr, name)
        if source is None:
            continue
        sources.append(source)
        bound.append((instr, name))
    if not bound:
        return
    namespace = {"ExecInfo": ExecInfo, "_add": add_carries, "_sub": sub_borrows}
    exec(compile_cached("\n".join(sources),
                        f"<execgen arm block {instrs[0].addr:#x}>"), namespace)
    for instr, name in bound:
        instr.exec_fn = namespace[name]
