"""Generated code for the ARM-like target, in two forms.

One set of body emitters (data processing with its shifter carry,
multiply, long multiply, single and block transfers) writes both.
Register numbers, immediates, shift amounts, condition tests and the
sequential PC become literals; operand2, the shifter carry and the
result of arithmetic that sets no flags are inline expressions (only a
flag-setting add or subtract calls :func:`_add` or :func:`_sub`); and
each emitted body mirrors :func:`repro.isa.arm.semantics.execute`
exactly.

* **Executors.**  :func:`_translate` writes a dedicated ``fn(state) ->
  ExecInfo`` for one instruction; the interpreter's fetch path compiles
  a new block's executors as one unit and attaches them as
  ``instr.exec_fn`` (:meth:`repro.iss.interpreter.BaseInterpreter.
  fetch_decode`).  ``step()``, the oracle and every timing model dispatch
  through them, because they need the :class:`ExecInfo` record per
  instruction.  NZCV and memory are the architectural ``state.flag_*``
  and ``state.memory``.
* **Block functions.**  :func:`block_source` composes the same bodies
  into one ``fn(state, syscalls, limit) -> next_pc`` for a whole basic
  block, the function the ISS run loop executes
  (:meth:`repro.iss.interpreter.BaseInterpreter.run`).  NZCV lives in the
  locals ``n``/``z``/``c``/``v``, memory in a local and aligned word loads
  read the memory's page map inline (``_word(pages.get(…), …)``, see
  :mod:`repro.memory.mainmem`); no :class:`ExecInfo` is written, the
  flags spill only at block exits and around a ``swi``, the PC is
  written only at exits, and every store is followed by an ``if not
  _block.valid:`` guard (``_block`` is the block itself, a name the
  bodies never bind), so a store over the running block stops at the
  next instruction boundary.  A block that ends in a ``b`` without link
  to its own entry loops in place (``while True:``), counting instret
  in the local ``_i``, until the branch falls through, a guard fires or
  another iteration would take instret past *limit*.

``udf`` encodings get neither form: they keep ``exec_fn = None`` and a
block function stops before them, so both paths raise through the
reference semantics.
"""

from __future__ import annotations

import re
from typing import List, Optional, Set, Tuple

from ...memory.mainmem import PAGE_BITS, PAGE_MASK, ZERO_PAGE, unpack_word
from .decode import ArmInstruction
from .isa import DP_NO_DEST, PC
from .semantics import ExecInfo

#: the target's name in generated code's filenames
ISA = "arm"

#: the instruction kind with no translation in either form
UNDEFINED_KIND = "udf"

#: condition-code tests over a block function's flag locals (AL/NV
#: omitted) ...
_COND_LOCAL = {
    0x0: "z == 1",
    0x1: "z == 0",
    0x2: "c == 1",
    0x3: "c == 0",
    0x4: "n == 1",
    0x5: "n == 0",
    0x6: "v == 1",
    0x7: "v == 0",
    0x8: "c == 1 and z == 0",
    0x9: "c == 0 or z == 1",
    0xA: "n == v",
    0xB: "n != v",
    0xC: "z == 0 and n == v",
    0xD: "z == 1 or n != v",
}
#: ... and over the architectural flags an executor reads
_COND_STATE = {cond: re.sub(r"\b([nzcv])\b", r"state.flag_\1", test)
               for cond, test in _COND_LOCAL.items()}

#: per form (block?): the NZCV and memory names and the condition tests
_FORMS = {
    True: ("n", "z", "c", "v", "memory", _COND_LOCAL),
    False: ("state.flag_n", "state.flag_z", "state.flag_c", "state.flag_v",
            "state.memory", _COND_STATE),
}

#: writes the flag locals back to the architectural state
_SPILL = "state.flag_n, state.flag_z, state.flag_c, state.flag_v = n, z, c, v"

#: the locals a block function binds for its bodies when they use them
_LOCALS = {"memory": "state.memory", "pages": "state.memory._pages"}


class _Emitter:
    """Accumulates instruction bodies in one form: an executor's, or
    (*block*) a block function's, which also counts the instructions
    emitted (``count``) and those already added to ``instret``
    (``counted``: before a syscall, or by a loop's iteration)."""

    def __init__(self, block: bool):
        self.block = block
        self.n, self.z, self.c, self.v, self.memory, self.cond = _FORMS[block]
        self.lines: List[str] = []
        self.pad = "    "
        self.count = 0
        self.counted = 0
        #: block function: the locals its bodies read (``memory``,
        #: ``pages``), and whether it loops in place (instret in ``_i``)
        self.locals: Set[str] = set()
        self.loop = False

    def emit(self, text: str) -> None:
        self.lines.append(self.pad + text)

    def info(self, text: str) -> None:
        """Emit an :class:`ExecInfo` field write (executors only)."""
        if not self.block:
            self.lines.append(self.pad + text)

    def mem(self, call: str) -> str:
        """*call* (``read_byte(…)``, ``write_word(…)``, …) on the memory."""
        self.locals.add("memory")
        return f"{self.memory}.{call}"

    def load_word(self, dest: str, address: str) -> None:
        """Block form: *dest* = the word at the name *address* (its low
        two bits ignored), read from the page map inline."""
        self.locals.add("pages")
        self.emit(f"{dest} = _word(pages.get({address} >> {PAGE_BITS}, _zero), "
                  f"{address} & {PAGE_MASK & ~3})[0]")

    def leave(self, pc: str) -> None:
        """A block function's exit to *pc*: spill the flags and count the
        instructions run."""
        self.emit(_SPILL)
        ahead = self.count - self.counted
        if not self.loop:
            self.emit(f"state.instret += {ahead}")
        else:
            self.emit(f"state.instret = _i + {ahead}" if ahead else "state.instret = _i")
        self.emit(f"return {pc}")


def _reg(reg: int, addr: int) -> str:
    """Register-read expression (PC reads as addr+8)."""
    if reg == PC:
        return f"{(addr + 8) & 0xFFFFFFFF}"
    return f"r[{reg}]"


def _shifter(e: _Emitter, instr: ArmInstruction) -> Tuple[str, Optional[str]]:
    """(operand2 expression, carry-out expression or None when the carry
    is unchanged); mirrors ``semantics._shifter_operand``."""
    if instr.has_imm:
        if instr.imm > 0xFF:
            return str(instr.imm), str((instr.imm >> 31) & 1)
        return str(instr.imm), None
    value = _reg(instr.rm, instr.addr)
    amount = instr.shift_amount
    kind = instr.shift_type
    if kind == 0:  # LSL
        if amount == 0:
            return value, None
        return (f"(({value} << {amount}) & 0xFFFFFFFF)",
                f"(({value} >> {32 - amount}) & 1)")
    if kind == 1:  # LSR (0 encodes 32)
        amount = amount or 32
        if amount == 32:
            return "0", f"(({value} >> 31) & 1)"
        return f"({value} >> {amount})", f"(({value} >> {amount - 1}) & 1)"
    if kind == 2:  # ASR (0 encodes 32)
        amount = amount or 32
        signed = f"({value} - 0x100000000 if {value} & 0x80000000 else {value})"
        return (f"(({signed} >> {min(amount, 31)}) & 0xFFFFFFFF)",
                f"(({signed} >> {min(amount - 1, 31)}) & 1)")
    # ROR (0 encodes RRX)
    if amount == 0:
        return (f"((({e.c} << 31) | ({value} >> 1)) & 0xFFFFFFFF)",
                f"({value} & 1)")
    rotated = f"((({value} >> {amount}) | ({value} << {32 - amount})) & 0xFFFFFFFF)"
    return rotated, f"(({rotated} >> 31) & 1)"


def _emit_dp(e: _Emitter, instr: ArmInstruction) -> None:
    mnemonic = instr.mnemonic
    operand2, shifter_carry = _shifter(e, instr)
    rn = _reg(instr.rn, instr.addr)
    arith = None  # (helper, first operand, second operand, carry-in or None)
    if mnemonic in ("and", "tst"):
        result = f"({rn} & {operand2})"
    elif mnemonic in ("eor", "teq"):
        result = f"({rn} ^ {operand2})"
    elif mnemonic in ("sub", "cmp"):
        arith = ("_sub", rn, operand2, None)
    elif mnemonic == "rsb":
        arith = ("_sub", operand2, rn, None)
    elif mnemonic in ("add", "cmn"):
        arith = ("_add", rn, operand2, None)
    elif mnemonic == "adc":
        arith = ("_add", rn, operand2, e.c)
    elif mnemonic == "sbc":
        arith = ("_sub", rn, operand2, e.c)
    elif mnemonic == "rsc":
        arith = ("_sub", operand2, rn, e.c)
    elif mnemonic == "orr":
        result = f"({rn} | {operand2})"
    elif mnemonic == "mov":
        result = operand2
    elif mnemonic == "bic":
        result = f"({rn} & ~{operand2} & 0xFFFFFFFF)"
    else:  # mvn
        result = f"(~{operand2} & 0xFFFFFFFF)"

    if arith is not None:
        helper, a, b, carry = arith
        if instr.sets_flags:
            operands = f"{a}, {b}" if carry is None else f"{a}, {b}, {carry}"
            e.emit(f"_t, {e.c}, {e.v} = {helper}({operands})")
        else:
            # the result alone, inline; a borrow is 1 - carry
            sign, borrow = ("+", "") if helper == "_add" else ("-", " - 1")
            carry_in = "" if carry is None else f"{borrow} + {carry}"
            e.emit(f"_t = ({a} {sign} {b}{carry_in}) & 0xFFFFFFFF")
    else:
        e.emit(f"_t = {result} & 0xFFFFFFFF")
        if instr.sets_flags and shifter_carry is not None:
            e.emit(f"{e.c} = {shifter_carry}")
    if instr.sets_flags:
        e.emit(f"{e.n} = (_t >> 31) & 1")
        e.emit(f"{e.z} = 1 if _t == 0 else 0")
    if mnemonic not in DP_NO_DEST and instr.rd != PC:
        e.emit(f"r[{instr.rd}] = _t")


def _emit_mul(e: _Emitter, instr: ArmInstruction) -> None:
    rm = _reg(instr.rm, instr.addr)
    rs = _reg(instr.rs, instr.addr)
    e.info(f"info.mul_operand = {rs}")
    expression = f"({rm} * {rs}"
    if instr.accumulate:
        expression += f" + {_reg(instr.rn, instr.addr)}"
    e.emit(f"_t = {expression}) & 0xFFFFFFFF")
    e.emit(f"r[{instr.rd}] = _t")
    if instr.s:
        e.emit(f"{e.n} = (_t >> 31) & 1")
        e.emit(f"{e.z} = 1 if _t == 0 else 0")


def _emit_mull(e: _Emitter, instr: ArmInstruction) -> None:
    rm = _reg(instr.rm, instr.addr)
    rs = _reg(instr.rs, instr.addr)
    e.info(f"info.mul_operand = {rs}")
    if instr.signed_mul:
        a = f"({rm} - 0x100000000 if {rm} & 0x80000000 else {rm})"
        b = f"({rs} - 0x100000000 if {rs} & 0x80000000 else {rs})"
    else:
        a, b = rm, rs
    e.emit(f"_p = {a} * {b}")
    if instr.accumulate:
        # the sign of a signed accumulator vanishes in the 64-bit mask
        e.emit(f"_p += (r[{instr.rdhi}] << 32) | r[{instr.rdlo}]")
    e.emit("_p &= 0xFFFFFFFFFFFFFFFF")
    e.emit(f"r[{instr.rdlo}] = _p & 0xFFFFFFFF")
    e.emit(f"r[{instr.rdhi}] = (_p >> 32) & 0xFFFFFFFF")
    if instr.s:
        e.emit(f"{e.n} = (_p >> 63) & 1")
        e.emit(f"{e.z} = 1 if _p == 0 else 0")


def _mem_offset(instr: ArmInstruction) -> str:
    """Offset of a single load/store (the register form shifts by a
    constant amount; mirrors ``semantics._execute_ldst``)."""
    if instr.has_imm:
        return str(instr.imm)
    value = _reg(instr.rm, instr.addr)
    amount = instr.shift_amount
    kind = instr.shift_type
    if kind == 0 and amount == 0:
        shifted = value
    elif kind == 0:
        shifted = f"(({value} << {amount}) & 0xFFFFFFFF)"
    elif kind == 1:
        shifted = f"({value} >> {amount or 32})"
    elif kind == 2:
        amount = min(amount or 32, 31)
        shifted = (f"((({value} - 0x100000000 if {value} & 0x80000000 else {value})"
                   f" >> {amount}) & 0xFFFFFFFF)")
    else:
        shifted = (f"((({value} >> {amount}) | ({value} << {32 - amount}))"
                   " & 0xFFFFFFFF)")
    return shifted if instr.up else f"-({shifted})"


def _emit_ldst(e: _Emitter, instr: ArmInstruction) -> None:
    e.emit(f"_a = ({_reg(instr.rn, instr.addr)} + {_mem_offset(instr)}) & 0xFFFFFFFF")
    e.info("info.mem_addr = _a")
    if instr.is_load:
        dest = "_t" if instr.rd == PC else f"r[{instr.rd}]"
        if instr.byte:
            e.emit(f"{dest} = {e.mem('read_byte(_a)')}")
        elif e.block:
            e.load_word(dest, "_a")
        else:
            e.emit(f"{dest} = {e.mem('read_word(_a & 0xFFFFFFFC)')}")
    else:
        e.info("info.mem_is_store = True")
        source = _reg(instr.rd, instr.addr)
        if instr.byte:
            e.emit(e.mem(f"write_byte(_a, {source} & 0xFF)"))
        else:
            e.emit(e.mem(f"write_word(_a & 0xFFFFFFFC, {source})"))


def _emit_ldm(e: _Emitter, instr: ArmInstruction) -> None:
    """LDM/STM unrolled at translation time (the register list and
    addressing mode are static); lowest register at the lowest address."""
    registers = [r for r in range(16) if instr.reglist & (1 << r)]
    count = len(registers)
    base = _reg(instr.rn, instr.addr)
    if instr.up:
        start_off = 4 if instr.pre_index else 0
        new_base = f"(({base} + {4 * count}) & 0xFFFFFFFF)"
    else:
        start_off = -4 * count + (0 if instr.pre_index else 4)
        new_base = f"(({base} - {4 * count}) & 0xFFFFFFFF)"
    e.emit(f"_a = ({base} + {start_off}) & 0xFFFFFFFC")
    if not e.block:
        # the timing models see the unaligned addresses the reference
        # reports
        if count:
            e.emit(f"info.mem_addr = _u = ({base} + {start_off}) & 0xFFFFFFFF")
            addrs = ", ".join(["_u"] + [f"(_u + {4 * i}) & 0xFFFFFFFF"
                                        for i in range(1, count)])
            e.emit(f"info.mem_addrs = [{addrs}]")
        else:
            e.emit("info.mem_addrs = []")
    if instr.is_load:
        for i, reg in enumerate(registers):
            dest = "_t" if reg == PC else f"r[{reg}]"
            if not e.block:
                e.emit(f"{dest} = {e.mem(f'read_word((_a + {4 * i}) & 0xFFFFFFFF)')}")
            elif i:
                e.emit(f"_w = (_a + {4 * i}) & 0xFFFFFFFF")
                e.load_word(dest, "_w")
            else:
                e.load_word(dest, "_a")
        if instr.writeback and not (instr.reglist & (1 << instr.rn)):
            e.emit(f"r[{instr.rn}] = {new_base}")
    else:
        e.info("info.mem_is_store = True")
        for i, reg in enumerate(registers):
            e.emit(e.mem(f"write_word((_a + {4 * i}) & 0xFFFFFFFF, "
                         f"{_reg(reg, instr.addr)})"))
        if instr.writeback:
            e.emit(f"r[{instr.rn}] = {new_base}")


#: kind -> body emitter; a body that writes the PC leaves the value in ``_t``
_BODIES = {"dp": _emit_dp, "mul": _emit_mul, "mull": _emit_mull,
           "ldst": _emit_ldst, "ldm": _emit_ldm}


# -- executors ------------------------------------------------------------------

def _translate(instr: ArmInstruction, name: str) -> Optional[str]:
    """Source of the executor for *instr*, or None when unsupported."""
    kind = instr.kind
    body = _BODIES.get(kind)
    if body is None and kind not in ("branch", "bx", "swi"):
        return None
    seq = (instr.addr + 4) & 0xFFFFFFFF
    e = _Emitter(block=False)
    guard = _COND_STATE.get(instr.cond)
    if guard is not None:
        e.emit(f"if not ({guard}):")
        e.emit(f"    state.pc = {seq}")
        e.emit(f"    return ExecInfo(False, {seq})")
    e.emit(f"info = ExecInfo(True, {seq})")
    if body is not None:
        body(e, instr)
        if instr.writes_pc:
            e.emit("info.next_pc = _t & 0xFFFFFFFC")
            e.emit("info.taken = True")
            e.emit("state.pc = info.next_pc")
        else:
            e.emit(f"state.pc = {seq}")
    elif kind == "branch":
        if instr.link:
            e.emit(f"r[14] = {seq}")
        target = (instr.addr + 8 + instr.imm) & 0xFFFFFFFF
        e.emit(f"info.next_pc = {target}")
        e.emit("info.taken = True")
        e.emit(f"state.pc = {target}")
    elif kind == "bx":
        e.emit(f"_t = {_reg(instr.rm, instr.addr)} & 0xFFFFFFFE")
        e.emit("info.next_pc = _t")
        e.emit("info.taken = True")
        e.emit("state.pc = _t")
    else:  # swi
        e.emit(f"state.syscalls.handle(state, {instr.swi_number})")
        e.emit(f"state.pc = {seq}")
    return "\n".join([f"def {name}(state):", "    r = state.regs.values",
                      *e.lines, "    return info"])


# -- block functions ------------------------------------------------------------

def _block_step(e: _Emitter, instr: ArmInstruction) -> Optional[str]:
    """Emit *instr*'s part of a block function; returns the next-pc
    expression when it ends the block (a control transfer), else None."""
    guard = e.cond.get(instr.cond)
    kind = instr.kind
    seq = str((instr.addr + 4) & 0xFFFFFFFF)
    body = _BODIES.get(kind)
    if body is None:
        return _block_ender(e, instr, guard, seq)
    if guard is not None:
        e.emit(f"if {guard}:")
        e.pad += "    "
    body(e, instr)
    if instr.writes_pc:
        # dp, ldr or ldm writing the PC: the body left it in _t
        if guard is None:
            return "_t & 0xFFFFFFFC"
        e.leave("_t & 0xFFFFFFFC")
        e.pad = e.pad[:-4]
        return seq
    if guard is not None:
        e.pad = e.pad[:-4]
    if instr.is_store:
        e.emit("if not _block.valid:")
        e.pad += "    "
        e.leave(seq)
        e.pad = e.pad[:-4]
    return None


def _branch_target(instr: ArmInstruction) -> int:
    return (instr.addr + 8 + instr.imm) & 0xFFFFFFFF


def _block_ender(e: _Emitter, instr: ArmInstruction, guard: Optional[str],
                 seq: str) -> str:
    kind = instr.kind
    if kind == "branch":
        target = str(_branch_target(instr))
        if instr.link:
            if guard:
                e.emit(f"if {guard}:")
                e.pad += "    "
                e.emit(f"r[14] = {seq}")
                e.leave(target)
                e.pad = e.pad[:-4]
                return seq
            e.emit(f"r[14] = {seq}")
            return target
        if guard:
            return f"{target} if {guard} else {seq}"
        return target
    if kind == "bx":
        expression = f"{_reg(instr.rm, instr.addr)} & 0xFFFFFFFE"
        if guard:
            return f"({expression}) if {guard} else {seq}"
        return expression
    if kind != "swi":
        raise ValueError(f"no block form for {instr.text!r} at {instr.addr:#x}")
    # swi: the handler sees the flags, PC and instret an executor would,
    # so a raising syscall leaves the reference's state
    e.emit(_SPILL)
    e.emit(f"state.pc = {instr.addr}")
    e.emit(f"state.instret += {e.count - 1 - e.counted}")
    e.counted = e.count - 1
    call = f"syscalls.handle(state, {instr.swi_number})"
    if guard:
        e.emit(f"if {guard}:")
        e.emit(f"    {call}")
    else:
        e.emit(call)
    e.emit("n, z, c, v = state.flag_n, state.flag_z, state.flag_c, state.flag_v")
    return seq


def block_source(instrs: List[ArmInstruction], name: str) -> str:
    """Source of ``name(state, syscalls, limit) -> next_pc``, which runs
    *instrs* (a basic block's leading instructions, none ``udf``) back
    to back and returns where control goes next.

    When the last is a ``b`` without link to the first, the body loops
    in place while the branch is taken and another iteration keeps
    instret within *limit* (the caller checks the first).
    """
    last = instrs[-1]
    e = _Emitter(block=True)
    e.loop = (last.kind == "branch" and not last.link
              and _branch_target(last) == instrs[0].addr)
    if e.loop:
        e.pad += "    "
    exit_pc: Optional[str] = None
    for instr in instrs:
        e.count += 1
        exit_pc = _block_step(e, instr)
    if e.loop:
        guard = e.cond.get(last.cond)
        taken = "" if guard is None else f"not ({guard}) or "
        e.emit(f"_i += {e.count}")
        e.counted = e.count
        e.emit(f"if {taken}_i > _last:")
        e.emit("    break")
        e.pad = e.pad[:-4]
    elif exit_pc is None:
        # block-length limit, or the block goes on with an instruction
        # that has no block form: continue at the next address
        exit_pc = str((last.addr + 4) & 0xFFFFFFFF)
    e.leave(exit_pc)
    head = [f"def {name}(state, syscalls, limit):", "    r = state.regs.values"]
    head += [f"    {local} = {_LOCALS[local]}" for local in sorted(e.locals)]
    head.append("    n = state.flag_n; z = state.flag_z; c = state.flag_c; v = state.flag_v")
    if e.loop:
        head += ["    _i = state.instret", f"    _last = limit - {e.count}",
                 "    while True:"]
    return "\n".join(head + e.lines)


def _add(a: int, b: int, carry: int = 0):
    """32-bit ``a + b + carry`` -> (result, carry out, overflow), for
    operands already in 32 bits."""
    total = a + b + carry
    result = total & 0xFFFFFFFF
    carry_out = 1 if total > 0xFFFFFFFF else 0
    overflow = 1 if ((a ^ result) & (b ^ result)) >> 31 & 1 else 0
    return result, carry_out, overflow


def _sub(a: int, b: int, carry: int = 1):
    """ARM-style ``a - b - (1 - carry)`` -> (result, carry out,
    overflow), for operands already in 32 bits: ``a + ~b + carry``, so
    carry out 1 means no borrow."""
    total = a + (b ^ 0xFFFFFFFF) + carry
    result = total & 0xFFFFFFFF
    carry_out = 1 if total > 0xFFFFFFFF else 0
    overflow = 1 if ((a ^ b) & (a ^ result)) >> 31 & 1 else 0
    return result, carry_out, overflow


#: the globals both forms read (a block function also reads ``_block``)
GLOBALS = {"ExecInfo": ExecInfo, "_add": _add, "_sub": _sub,
           "_word": unpack_word, "_zero": ZERO_PAGE}
