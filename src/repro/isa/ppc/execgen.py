"""Generated code for the PowerPC-like target, in two forms.

One set of emitters writes both.  Register numbers, immediates,
shift/rotate amounts, BO/BI branch conditions and ``rlwinm`` masks become
literals, and each emitted body mirrors
:func:`repro.isa.ppc.semantics.execute` exactly (including the CTR
decrement side effect of branch conditions).

* **Executors.**  :func:`_translate` writes a dedicated ``fn(state) ->
  ExecInfo`` for one instruction; the interpreter's fetch path
  (:meth:`repro.iss.interpreter.BaseInterpreter.fetch_decode`) has
  :func:`repro.iss.translations.bind_block` compile a new block's
  executors as one unit and attach them as ``instr.exec_fn``.  ``step()``, the ppc750 oracle and every timing model
  dispatch through them, because they need the :class:`ExecInfo` record
  per instruction.
* **Block functions.**  :func:`block_source` composes the same bodies
  into one ``fn(state, syscalls, limit, _block) -> next_pc`` for a
  whole basic block, the function the ISS run loop executes
  (:meth:`repro.iss.interpreter.BaseInterpreter.run`).  CR0 and memory
  live in locals, aligned word loads read the memory's page map inline
  (``_word(pages.get(…), …)``, see :mod:`repro.memory.mainmem`), no
  :class:`ExecInfo` is written, the PC is written only at block exits,
  and every store is followed by an ``if not _block.valid:`` guard
  (``_block``, an argument the bodies never bind, is the running
  block), so a store over the running block stops at the next
  instruction boundary.
  A block that ends in a ``b`` or ``bc`` without link to its own entry
  loops in place (``while True:``), counting instret in the local
  ``_i``, until the branch falls through, a guard fires or another
  iteration would take instret past *limit*.

``illegal`` encodings get neither form: they keep ``exec_fn = None`` and
a block ends before them, so both paths raise through the reference
semantics.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ...memory.mainmem import PAGE_BITS, PAGE_MASK, ZERO_PAGE, unpack_word
from .decode import PpcInstruction
from .isa import CR_EQ, CR_GT, CR_LT, SPR_LR
from .semantics import ExecInfo, _div_trunc, _mask

#: the target's name in generated code's filenames
ISA = "ppc"

#: the instruction kind with no translation in either form
UNDEFINED_KIND = "illegal"

#: CR0 bit -> the flag an executor reads and writes (LT/GT/EQ; SO reads
#: as 0) ...
_CR0_STATE = {CR_LT: "state.flag_n", CR_GT: "state.flag_c", CR_EQ: "state.flag_z"}
#: ... and the local a block function keeps it in
_CR0_LOCAL = {CR_LT: "lt", CR_GT: "gt", CR_EQ: "eq"}


class _Emitter:
    """Accumulates one instruction's body, for an executor or (*block*)
    for its part of a block function."""

    def __init__(self, instr: PpcInstruction, block: bool = False):
        self.instr = instr
        self.seq = (instr.addr + 4) & 0xFFFFFFFF
        self.block = block
        self.lines: List[str] = []
        self.memory = "memory" if block else "state.memory"
        self._cr0 = _CR0_LOCAL if block else _CR0_STATE
        #: True once the body reads or writes CR0
        self.uses_cr = False
        #: executor: True when the instruction computes next_pc at run time
        self.dynamic_pc = False
        #: block function: a branch's target expression and the guard
        #: it is taken under (None: always)
        self.target: Optional[str] = None
        self.guard: Optional[str] = None
        #: block function: the locals the body reads (``memory``, ``pages``)
        self.locals: Set[str] = set()

    def emit(self, text: str) -> None:
        self.lines.append("    " + text)

    def info(self, text: str) -> None:
        """Emit an :class:`ExecInfo` field write (executors only)."""
        if not self.block:
            self.emit(text)

    def mem(self, call: str) -> str:
        """*call* (``read_byte(…)``, ``write_word(…)``, …) on the memory."""
        self.locals.add("memory")
        return f"{self.memory}.{call}"

    def cr0(self, bit: int) -> Optional[str]:
        """The flag holding CR0 *bit* (None for SO, which reads as 0)."""
        self.uses_cr = True
        return self._cr0.get(bit)


def _emit_cr0(e: _Emitter, value: str) -> None:
    """Mirror of ``semantics._set_cr0`` over a masked 32-bit value."""
    e.emit(f"{e.cr0(CR_LT)} = ({value} >> 31) & 1")
    e.emit(f"{e.cr0(CR_GT)} = 1 if ({value} != 0 and not ({value} >> 31)) else 0")
    e.emit(f"{e.cr0(CR_EQ)} = 1 if {value} == 0 else 0")


def _emit_branch_condition(e: _Emitter, instr: PpcInstruction) -> Optional[str]:
    """Emit the BO/BI evaluation (CTR side effect included); returns the
    guard expression, or None when the branch is unconditional."""
    bo = instr.bo
    parts = []
    if not (bo & 0b00100):  # decrement CTR, test against zero
        e.emit("state.ctr = (state.ctr - 1) & 0xFFFFFFFF")
        parts.append("state.ctr == 0" if bo & 0b00010 else "state.ctr != 0")
    if not (bo & 0b10000):
        attr = e.cr0(instr.bi)
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
        _emit_jump(e, str(target & 0xFFFFFFFF), None)
        return
    guard = _emit_branch_condition(e, instr)
    if kind == "bc":
        target = instr.imm if instr.aa else instr.addr + instr.imm
        target_expr = str(target & 0xFFFFFFFF)
    elif kind == "bclr":
        target_expr = "_t"
    else:  # bcctr
        target_expr = "state.ctr & 0xFFFFFFFC"
    _emit_jump(e, target_expr, guard)


def _emit_jump(e: _Emitter, target: str, guard: Optional[str]) -> None:
    """Control goes to *target* (when *guard* holds, if one is given)."""
    if e.block:
        e.target, e.guard = target, guard
    elif guard is None:
        e.emit(f"info.next_pc = {target}")
        e.emit("info.taken = True")
    else:
        e.emit(f"if {guard}:")
        e.emit(f"    info.next_pc = {target}")
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
    e.emit(f"{e.cr0(CR_LT)} = 1 if _l < _r else 0")
    e.emit(f"{e.cr0(CR_GT)} = 1 if _l > _r else 0")
    e.emit(f"{e.cr0(CR_EQ)} = 1 if _l == _r else 0")


def _emit_mem(e: _Emitter, instr: PpcInstruction) -> None:
    base = "0" if instr.ra == 0 else f"r[{instr.ra}]"
    if instr.kind == "mem":
        e.emit(f"_a = ({base} + {instr.imm}) & 0xFFFFFFFF")
    else:
        e.emit(f"_a = ({base} + r[{instr.rb}]) & 0xFFFFFFFF")
    e.info("info.mem_addr = _a")
    mnemonic = instr.mnemonic
    byte = mnemonic in ("lbz", "stb", "lbzx", "stbx")
    half = mnemonic in ("lhz", "lha", "sth")
    if instr.is_load:
        if byte:
            e.emit(f"_t = {e.mem('read_byte(_a)')}")
        elif half:
            e.emit(f"_t = {e.mem('read_half(_a & 0xFFFFFFFE)')}")
            if mnemonic == "lha":
                e.emit("if _t & 0x8000:")
                e.emit("    _t |= 0xFFFF0000")
        elif e.block:
            # the page map, inline (the offset drops the low two bits)
            e.locals.add("pages")
            e.emit(f"_t = _word(pages.get(_a >> {PAGE_BITS}, _zero), "
                   f"_a & {PAGE_MASK & ~3})[0]")
        else:
            e.emit(f"_t = {e.mem('read_word(_a & 0xFFFFFFFC)')}")
        e.emit(f"r[{instr.rt}] = _t")
    else:
        e.info("info.mem_is_store = True")
        value = f"r[{instr.rt}]"
        if byte:
            e.emit(e.mem(f"write_byte(_a, {value} & 0xFF)"))
        elif half:
            e.emit(e.mem(f"write_half(_a & 0xFFFFFFFE, {value} & 0xFFFF)"))
        else:
            e.emit(e.mem(f"write_word(_a & 0xFFFFFFFC, {value})"))


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
        e.info("info.mul_operand = _b")
    elif mnemonic == "mulhw":
        e.emit(f"_t = ({signed_a} * {signed_b}) >> 32")
        e.info("info.mul_operand = _b")
    elif mnemonic == "divw":
        e.emit(f"_d = {signed_b}")
        e.emit(f"_t = 0 if _d == 0 else _div({signed_a}, _d)")
        e.info("info.mul_operand = _b")
    else:  # divwu
        e.emit("_t = 0 if _b == 0 else _a // _b")
        e.info("info.mul_operand = _b")
    e.emit("_t &= 0xFFFFFFFF")
    e.emit(f"r[{instr.rt}] = _t")
    if instr.rc:
        _emit_cr0(e, "_t")


def _emit_body(e: _Emitter) -> bool:
    """Emit *e*'s instruction; False when it has no translation
    (``illegal``)."""
    instr = e.instr
    kind = instr.kind
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
        return False
    return True


def _translate(instr: PpcInstruction, name: str) -> Optional[str]:
    """Source of the executor for *instr*, or None when unsupported."""
    e = _Emitter(instr)
    e.emit(f"info = ExecInfo(True, {e.seq})")
    if not _emit_body(e):
        return None
    pc = "info.next_pc" if e.dynamic_pc else str(e.seq)
    return "\n".join([f"def {name}(state):", "    r = state.regs.values",
                      *e.lines, f"    state.pc = {pc}", "    return info"])


def block_source(instrs: List[PpcInstruction], name: str) -> str:
    """Source of ``name(state, syscalls, limit, _block) -> next_pc``,
    which runs *instrs* (a basic block's leading instructions, none
    ``illegal``) back to back and returns where control goes next.

    CR0 lives in the locals ``lt``/``gt``/``eq`` when the block touches
    it, and is written back at every exit and before a syscall, which
    also sees the PC and ``instret`` an executor would (a raising
    syscall leaves the reference's state).  When the last is a ``b`` or
    ``bc`` without link to the first, the body loops in place while the
    branch is taken and another iteration keeps instret within *limit*
    (the caller checks the first).
    """
    parts = []
    for instr in instrs:
        e = _Emitter(instr, block=True)
        if not _emit_body(e):
            raise ValueError(f"no block form for {instr.text!r} at {instr.addr:#x}")
        parts.append(e)
    last = parts[-1]
    loop = (last.instr.kind in ("b", "bc") and not last.instr.lk
            and last.target == str(instrs[0].addr))
    pad = "        " if loop else "    "
    spill = []
    lines = [f"def {name}(state, syscalls, limit, _block):", "    r = state.regs.values"]
    lines += [f"    {local} = {_LOCALS[local]}"
              for local in sorted(set().union(*(e.locals for e in parts)))]
    if any(e.uses_cr for e in parts):
        lines.append("    lt = state.flag_n; gt = state.flag_c; eq = state.flag_z")
        spill = ["state.flag_n = lt; state.flag_c = gt; state.flag_z = eq"]
    if loop:
        lines += ["    _i = state.instret", f"    _last = limit - {len(parts)}",
                  "    while True:"]
    counted = 0  # instructions already added to instret

    def leave(count: int, pc, indent: str) -> List[str]:
        if not loop:
            instret = f"state.instret += {count - counted}"
        else:
            instret = f"state.instret = _i + {count}" if count else "state.instret = _i"
        return [indent + text for text in spill + [instret, f"return {pc}"]]

    for count, e in enumerate(parts, 1):
        if e.instr.kind == "sc":
            lines += [pad + text for text in spill]
            lines.append(f"{pad}state.pc = {e.instr.addr}")
            lines.append(f"{pad}state.instret += {count - 1 - counted}")
            counted = count - 1
        lines += [pad[4:] + line for line in e.lines]
        if e.instr.is_store:
            lines.append(f"{pad}if not _block.valid:")
            lines += leave(count, e.seq, pad + "    ")
    exit_pc = last.target or last.seq
    if last.guard is not None:
        exit_pc = f"{last.target} if {last.guard} else {last.seq}"
    if loop:
        taken = "" if last.guard is None else f"not ({last.guard}) or "
        lines += [f"{pad}_i += {len(parts)}", f"{pad}if {taken}_i > _last:",
                  f"{pad}    break"]
        lines += leave(0, exit_pc, "    ")
    else:
        lines += leave(len(parts), exit_pc, "    ")
    return "\n".join(lines)


#: the locals a block function binds for its bodies when they use them
_LOCALS = {"memory": "state.memory", "pages": "state.memory._pages"}

#: the globals both forms read, and all a block function reads besides
#: its arguments, so one block function serves every interpreter
GLOBALS = {"ExecInfo": ExecInfo, "_div": _div_trunc,
           "_word": unpack_word, "_zero": ZERO_PAGE}
