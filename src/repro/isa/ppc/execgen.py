"""Specialised per-instruction executors for the PowerPC-like target.

The PPC counterpart of :mod:`repro.isa.arm.execgen`: :func:`bind_block`
translates each instruction of a freshly-discovered basic block into a
dedicated ``fn(state) -> ExecInfo`` function — register numbers,
immediates, shift/rotate amounts, BO/BI branch conditions and ``rlwinm``
masks become literals — compiles the block's functions as one unit
(through the process code cache, :mod:`repro.codecache`), and attaches
them as ``instr.exec_fn``.  Every executor mirrors
:func:`repro.isa.ppc.semantics.execute` exactly (including the CTR
decrement side effect of branch conditions); ``illegal`` encodings keep
``exec_fn = None`` and fall back to the interpreter's error path.
"""

from __future__ import annotations

from typing import List, Optional

from ...codecache import compile_cached
from .decode import PpcInstruction
from .isa import CR_EQ, CR_GT, CR_LT, SPR_LR
from .semantics import ExecInfo, _div_trunc, _mask, _rotl32

#: CR0 bit -> architectural flag attribute (LT/GT/EQ; SO reads as 0)
_CR0_ATTR = {CR_LT: "state.flag_n", CR_GT: "state.flag_c", CR_EQ: "state.flag_z"}


def ends_block(instr) -> bool:
    """Block-ender predicate (API symmetry with the ARM execgen)."""
    return instr.is_branch or instr.writes_pc or instr.unit == "sru"


class _Emitter:
    def __init__(self, name: str, instr: PpcInstruction):
        self.instr = instr
        self.seq = (instr.addr + 4) & 0xFFFFFFFF
        self._lines: List[str] = [f"def {name}(state):", "    r = state.regs.values"]
        self.dynamic_pc = False

    def emit(self, text: str) -> None:
        self._lines.append("    " + text)

    def source(self) -> str:
        if self.dynamic_pc:
            self.emit("state.pc = info.next_pc")
        else:
            self.emit(f"state.pc = {self.seq}")
        self.emit("return info")
        return "\n".join(self._lines)


def _emit_cr0(e: _Emitter, value: str) -> None:
    """Mirror of ``semantics._set_cr0`` over a masked 32-bit value."""
    e.emit(f"state.flag_n = ({value} >> 31) & 1")
    e.emit(f"state.flag_c = 1 if ({value} != 0 and not ({value} >> 31)) else 0")
    e.emit(f"state.flag_z = 1 if {value} == 0 else 0")


def _emit_branch_condition(e: _Emitter, instr: PpcInstruction) -> Optional[str]:
    """Emit the BO/BI evaluation (CTR side effect included); returns the
    guard expression, or None when the branch is unconditional."""
    bo = instr.bo
    parts = []
    if not (bo & 0b00100):  # decrement CTR, test against zero
        e.emit("state.ctr = (state.ctr - 1) & 0xFFFFFFFF")
        parts.append("state.ctr == 0" if bo & 0b00010 else "state.ctr != 0")
    if not (bo & 0b10000):
        attr = _CR0_ATTR.get(instr.bi)
        want = 1 if bo & 0b01000 else 0
        if attr is None:  # SO: reads as 0
            if want == 1:
                parts.append("False")
        else:
            parts.append(f"{attr} == {want}")
    if not parts:
        return None
    return " and ".join(parts)


def _emit_branch(e: _Emitter, instr: PpcInstruction) -> None:
    kind = instr.kind
    e.dynamic_pc = True
    if kind == "bclr":
        # the link-register target is latched before lk overwrites it
        e.emit("_t = state.lr & 0xFFFFFFFC")
    if instr.lk:
        e.emit(f"state.lr = {e.seq}")
    if kind == "b":
        target = instr.imm if instr.aa else instr.addr + instr.imm
        e.emit(f"info.next_pc = {target & 0xFFFFFFFF}")
        e.emit("info.taken = True")
        return
    guard = _emit_branch_condition(e, instr)
    if kind == "bc":
        target = instr.imm if instr.aa else instr.addr + instr.imm
        target_expr = str(target & 0xFFFFFFFF)
    elif kind == "bclr":
        target_expr = "_t"
    else:  # bcctr
        target_expr = "state.ctr & 0xFFFFFFFC"
    if guard is None:
        e.emit(f"info.next_pc = {target_expr}")
        e.emit("info.taken = True")
    else:
        e.emit(f"if {guard}:")
        e.emit(f"    info.next_pc = {target_expr}")
        e.emit("    info.taken = True")


def _emit_dalu(e: _Emitter, instr: PpcInstruction) -> None:
    mnemonic = instr.mnemonic
    if mnemonic in ("ori", "oris", "xori", "andi."):
        source = f"r[{instr.rt}]"
        imm = instr.imm
        if mnemonic == "ori":
            expr = f"{source} | {imm}"
        elif mnemonic == "oris":
            expr = f"{source} | {imm << 16}"
        elif mnemonic == "xori":
            expr = f"{source} ^ {imm}"
        else:
            expr = f"{source} & {imm}"
        e.emit(f"_t = ({expr}) & 0xFFFFFFFF")
        e.emit(f"r[{instr.ra}] = _t")
        if mnemonic == "andi.":
            _emit_cr0(e, "_t")
        return
    if instr.ra == 0 and mnemonic in ("addi", "addis"):
        base = "0"
    else:
        base = f"r[{instr.ra}]"
    if mnemonic in ("addi", "addic"):
        expr = f"{base} + {instr.imm}"
    elif mnemonic == "addis":
        expr = f"{base} + {instr.imm << 16}"
    elif mnemonic == "subfic":
        e.emit(f"_b = {base}")
        expr = f"{instr.imm} - (_b - 0x100000000 if _b & 0x80000000 else _b)"
    else:  # mulli
        e.emit(f"_b = {base}")
        expr = f"(_b - 0x100000000 if _b & 0x80000000 else _b) * {instr.imm}"
    e.emit(f"r[{instr.rt}] = ({expr}) & 0xFFFFFFFF")


def _emit_cmp(e: _Emitter, instr: PpcInstruction) -> None:
    e.emit(f"_a = r[{instr.ra}]")
    if instr.kind == "cmpi":
        signed = instr.mnemonic == "cmpwi"
        right = str(instr.imm if signed else instr.imm & 0xFFFF)
    else:
        signed = instr.mnemonic == "cmpw"
        e.emit(f"_b = r[{instr.rb}]")
        right = "(_b - 0x100000000 if _b & 0x80000000 else _b)" if signed else "_b"
    left = "(_a - 0x100000000 if _a & 0x80000000 else _a)" if signed else "_a"
    e.emit(f"_l = {left}")
    e.emit(f"_r = {right}")
    e.emit("state.flag_n = 1 if _l < _r else 0")
    e.emit("state.flag_c = 1 if _l > _r else 0")
    e.emit("state.flag_z = 1 if _l == _r else 0")


def _emit_mem(e: _Emitter, instr: PpcInstruction) -> None:
    base = "0" if instr.ra == 0 else f"r[{instr.ra}]"
    if instr.kind == "mem":
        e.emit(f"_a = ({base} + {instr.imm}) & 0xFFFFFFFF")
    else:
        e.emit(f"_a = ({base} + r[{instr.rb}]) & 0xFFFFFFFF")
    e.emit("info.mem_addr = _a")
    mnemonic = instr.mnemonic
    byte = mnemonic in ("lbz", "stb", "lbzx", "stbx")
    half = mnemonic in ("lhz", "lha", "sth")
    if instr.is_load:
        if byte:
            e.emit("_t = state.memory.read_byte(_a)")
        elif half:
            e.emit("_t = state.memory.read_half(_a & 0xFFFFFFFE)")
            if mnemonic == "lha":
                e.emit("if _t & 0x8000:")
                e.emit("    _t |= 0xFFFF0000")
        else:
            e.emit("_t = state.memory.read_word(_a & 0xFFFFFFFC)")
        e.emit(f"r[{instr.rt}] = _t")
    else:
        e.emit("info.mem_is_store = True")
        value = f"r[{instr.rt}]"
        if byte:
            e.emit(f"state.memory.write_byte(_a, {value} & 0xFF)")
        elif half:
            e.emit(f"state.memory.write_half(_a & 0xFFFFFFFE, {value} & 0xFFFF)")
        else:
            e.emit(f"state.memory.write_word(_a & 0xFFFFFFFC, {value})")


def _emit_xalu(e: _Emitter, instr: PpcInstruction) -> None:
    mnemonic = instr.mnemonic
    if mnemonic == "neg":
        e.emit(f"_a = r[{instr.ra}]")
        e.emit("_t = (-(_a - 0x100000000 if _a & 0x80000000 else _a)) & 0xFFFFFFFF")
        e.emit(f"r[{instr.rt}] = _t")
        if instr.rc:
            _emit_cr0(e, "_t")
        return
    if mnemonic in ("and", "or", "xor", "slw", "srw", "sraw"):
        e.emit(f"_s = r[{instr.rt}]")  # rS
        e.emit(f"_b = r[{instr.rb}]")
        if mnemonic == "and":
            e.emit("_t = _s & _b")
        elif mnemonic == "or":
            e.emit("_t = _s | _b")
        elif mnemonic == "xor":
            e.emit("_t = _s ^ _b")
        elif mnemonic == "slw":
            e.emit("_n = _b & 0x3F")
            e.emit("_t = 0 if _n > 31 else (_s << _n) & 0xFFFFFFFF")
        elif mnemonic == "srw":
            e.emit("_n = _b & 0x3F")
            e.emit("_t = 0 if _n > 31 else _s >> _n")
        else:  # sraw
            e.emit("_n = _b & 0x3F")
            e.emit("if _n > 31:")
            e.emit("    _n = 31")
            e.emit("_t = ((_s - 0x100000000 if _s & 0x80000000 else _s) >> _n)"
                   " & 0xFFFFFFFF")
        e.emit("_t &= 0xFFFFFFFF")
        e.emit(f"r[{instr.ra}] = _t")
        if instr.rc:
            _emit_cr0(e, "_t")
        return
    e.emit(f"_a = r[{instr.ra}]")
    e.emit(f"_b = r[{instr.rb}]")
    signed_a = "(_a - 0x100000000 if _a & 0x80000000 else _a)"
    signed_b = "(_b - 0x100000000 if _b & 0x80000000 else _b)"
    if mnemonic == "add":
        e.emit("_t = _a + _b")
    elif mnemonic in ("subf", "subfc"):
        e.emit("_t = _b - _a")
    elif mnemonic == "mullw":
        e.emit(f"_t = {signed_a} * {signed_b}")
        e.emit("info.mul_operand = _b")
    elif mnemonic == "mulhw":
        e.emit(f"_t = ({signed_a} * {signed_b}) >> 32")
        e.emit("info.mul_operand = _b")
    elif mnemonic == "divw":
        e.emit(f"_d = {signed_b}")
        e.emit(f"_t = 0 if _d == 0 else _div({signed_a}, _d)")
        e.emit("info.mul_operand = _b")
    else:  # divwu
        e.emit("_t = 0 if _b == 0 else _a // _b")
        e.emit("info.mul_operand = _b")
    e.emit("_t &= 0xFFFFFFFF")
    e.emit(f"r[{instr.rt}] = _t")
    if instr.rc:
        _emit_cr0(e, "_t")


def _translate(instr: PpcInstruction, name: str) -> Optional[str]:
    kind = instr.kind
    if kind == "illegal":
        return None
    e = _Emitter(name, instr)
    e.emit(f"info = ExecInfo(True, {e.seq})")
    if kind == "dalu":
        _emit_dalu(e, instr)
    elif kind in ("cmp", "cmpi"):
        _emit_cmp(e, instr)
    elif kind in ("mem", "memx"):
        _emit_mem(e, instr)
    elif kind == "xalu":
        _emit_xalu(e, instr)
    elif kind == "rlwinm":
        # rotate amount and MB..ME mask are static: precompute the mask
        mask = _mask(instr.mb, instr.me)
        sh = instr.sh & 31
        if sh == 0:
            e.emit(f"_t = r[{instr.rt}] & {mask:#x}")
        else:
            e.emit(f"_s = r[{instr.rt}]")
            e.emit(f"_t = (((_s << {sh}) | (_s >> {32 - sh})) & 0xFFFFFFFF)"
                   f" & {mask:#x}")
        e.emit(f"r[{instr.ra}] = _t")
        if instr.rc:
            _emit_cr0(e, "_t")
    elif kind == "srawi":
        e.emit(f"_s = r[{instr.rt}]")
        e.emit(f"_t = ((_s - 0x100000000 if _s & 0x80000000 else _s)"
               f" >> {instr.sh}) & 0xFFFFFFFF")
        e.emit(f"r[{instr.ra}] = _t")
        if instr.rc:
            _emit_cr0(e, "_t")
    elif kind == "xunary":
        e.emit(f"_s = r[{instr.rt}]")
        if instr.mnemonic == "extsb":
            e.emit("_t = (_s & 0xFF) | (0xFFFFFF00 if _s & 0x80 else 0)")
        elif instr.mnemonic == "extsh":
            e.emit("_t = (_s & 0xFFFF) | (0xFFFF0000 if _s & 0x8000 else 0)")
        else:  # cntlzw
            e.emit("_t = 32 - _s.bit_length() if _s else 32")
        e.emit(f"r[{instr.ra}] = _t & 0xFFFFFFFF")
        if instr.rc:
            _emit_cr0(e, "(_t & 0xFFFFFFFF)")
    elif kind in ("b", "bc", "bclr", "bcctr"):
        _emit_branch(e, instr)
    elif kind == "mtspr":
        if instr.spr == SPR_LR:
            e.emit(f"state.lr = r[{instr.rt}]")
        else:
            e.emit(f"state.ctr = r[{instr.rt}]")
    elif kind == "mfspr":
        source = "state.lr" if instr.spr == SPR_LR else "state.ctr"
        e.emit(f"r[{instr.rt}] = {source} & 0xFFFFFFFF")
    elif kind == "sc":
        e.emit("state.syscalls.handle(state, r[0])")
    else:
        return None
    return e.source()


def bind_block(instrs: List[PpcInstruction]) -> None:
    """Attach ``exec_fn`` executors to every supported instruction of a
    basic block, compiling the block's functions as one unit."""
    sources = []
    bound = []
    for index, instr in enumerate(instrs):
        if instr.exec_fn is not None:
            continue
        name = f"_x{index}"
        source = _translate(instr, name)
        if source is None:
            continue
        sources.append(source)
        bound.append((instr, name))
    if not bound:
        return
    namespace = {"ExecInfo": ExecInfo, "_div": _div_trunc}
    exec(compile_cached("\n".join(sources),
                        f"<execgen ppc block {instrs[0].addr:#x}>"), namespace)
    for instr, name in bound:
        instr.exec_fn = namespace[name]
