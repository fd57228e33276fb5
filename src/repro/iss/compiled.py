"""Dynamically-compiled instruction-set simulation.

Section 1 of the paper classifies fast ISS techniques: interpreted
simulation, statically-compiled simulation [Pees et al.] and
dynamically-compiled simulation [Shade].  :class:`CompiledArmInterpreter`
implements the dynamic variant over the shared decode cache's basic-block
layer: the first time control reaches an address, the block starting
there is translated to a specialised function and cached on the
:class:`~repro.iss.decode_cache.DecodedBlock`; subsequent visits run the
function directly, eliminating per-instruction decode and dispatch, and
a store over translated code invalidates decode and translation together.

The translation (:class:`BlockTranslator`) emits whole-block Python
source: register numbers, immediates, shift amounts and condition tests
become literals, and NZCV flags live in local variables across the
block, spilling only at block exit.  Blocks end at control transfers
(branches, mov-to-pc, swi) or after ``MAX_BLOCK_LEN`` instructions.

The PPC target has no compiled ISS: its specialised interpreter
(:class:`~repro.iss.interpreter.PpcInterpreter`) already runs
block-at-a-time over the execgen executors, and chaining the same
executors under a compiled-ISS loop measured no faster.

The compiled ISS is drop-in compatible with its interpreter (same
architectural state, same syscalls) and is differentially tested
against it; the speed ratio is reported by
``benchmarks/bench_compiled_iss.py``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..codecache import compile_cached
from ..isa.arm.decode import ArmInstruction
from ..isa.arm.isa import PC
from ..isa.program import Program
from .interpreter import ArmInterpreter, IssError

MAX_BLOCK_LEN = 64

#: condition-code test expressions over the local flag variables n,z,c,v
_COND_EXPR = {
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

_LOGICAL = frozenset(("and", "eor", "tst", "teq", "orr", "mov", "bic", "mvn"))


class BlockTranslator:
    """Translates one basic block to a Python function."""

    def __init__(self):
        self._lines: List[str] = []
        self._indent = 1
        #: instructions translated so far; block enders consult it when
        #: emitting early returns (the footer's accounting must not be
        #: skipped)
        self.instr_count = 0

    def emit_early_return(self, expression: str) -> None:
        self.emit("state.flag_n, state.flag_z, state.flag_c, state.flag_v = n, z, c, v")
        self.emit(f"state.instret += {self.instr_count}")
        self.emit(f"return {expression}")

    def emit(self, text: str) -> None:
        self._lines.append("    " * self._indent + text)

    # -- operand expressions ---------------------------------------------------

    def _reg(self, reg: int, addr: int) -> str:
        if reg == PC:
            return f"{(addr + 8) & 0xFFFFFFFF}"
        return f"r[{reg}]"

    def _shifter(self, instr: ArmInstruction, want_carry: bool) -> Tuple[str, Optional[str]]:
        """(operand2 expression, carry-out expression or None=unchanged)."""
        if instr.has_imm:
            if instr.imm > 0xFF:
                return str(instr.imm), str((instr.imm >> 31) & 1)
            return str(instr.imm), None
        value = self._reg(instr.rm, instr.addr)
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
            return f"(((c << 31) | ({value} >> 1)) & 0xFFFFFFFF)", f"({value} & 1)"
        rotated = f"((({value} >> {amount}) | ({value} << {32 - amount})) & 0xFFFFFFFF)"
        return rotated, f"(({rotated} >> 31) & 1)"

    # -- per-instruction translation -----------------------------------------------

    def emit_store_guard(self, instr: ArmInstruction) -> None:
        """After a store: bail out if the store hit this very block.

        The decode cache flips ``valid`` on the block object when a write
        overlaps it, so self-modifying code stops at the next instruction
        boundary and the dispatch loop re-fetches — the same contract the
        interpreted block loop honors.  ``_b`` is bound to the block at
        translation time.
        """
        self.emit("if not _b.valid:")
        self._indent += 1
        self.emit_early_return(str((instr.addr + 4) & 0xFFFFFFFF))
        self._indent -= 1

    def translate(self, instr: ArmInstruction) -> Optional[str]:
        """Emit statements for *instr*; returns a 'return' expression when
        the instruction ends the block (control transfer), else None."""
        guard = _COND_EXPR.get(instr.cond)
        if guard is not None and instr.kind in ("branch", "bx", "swi"):
            # conditional block-enders handled by their emitters
            pass
        elif guard is not None:
            self.emit(f"if {guard}:")
            self._indent += 1
            self._emit_body(instr)
            self._indent -= 1
            if instr.is_store:
                self.emit_store_guard(instr)
            return None
        if instr.kind == "ldm" and instr.writes_pc:
            if guard:
                # the whole transfer is conditional, not just the jump
                self.emit(f"if {guard}:")
                self._indent += 1
                self._emit_block_transfer(instr, load_pc=True)
                self.emit_early_return("_t & 0xFFFFFFFC")
                self._indent -= 1
                return str((instr.addr + 4) & 0xFFFFFFFF)
            self._emit_block_transfer(instr, load_pc=True)
            return "_t & 0xFFFFFFFC"
        if instr.kind in ("branch", "bx", "swi") or (
            instr.kind in ("dp", "ldst") and instr.writes_pc
        ):
            return self._emit_block_ender(instr, guard)
        self._emit_body(instr)
        if instr.is_store:
            self.emit_store_guard(instr)
        return None

    def _emit_body(self, instr: ArmInstruction) -> None:
        kind = instr.kind
        if kind == "dp":
            self._emit_dp(instr)
        elif kind == "mul":
            self._emit_mul(instr)
        elif kind == "mull":
            self._emit_mull(instr)
        elif kind == "ldst":
            self._emit_ldst(instr)
        elif kind == "ldm":
            self._emit_block_transfer(instr, load_pc=False)
        else:
            raise IssError(f"cannot compile {instr.text!r} at {instr.addr:#x}")

    def _emit_dp(self, instr: ArmInstruction) -> None:
        mnemonic = instr.mnemonic
        operand2, shifter_carry = self._shifter(instr, instr.sets_flags)
        rn = self._reg(instr.rn, instr.addr)
        arith = None  # (expression producing (res, c, v))
        if mnemonic in ("and", "tst"):
            result = f"({rn} & {operand2})"
        elif mnemonic in ("eor", "teq"):
            result = f"({rn} ^ {operand2})"
        elif mnemonic in ("sub", "cmp"):
            arith = f"_sub({rn}, {operand2})"
        elif mnemonic == "rsb":
            arith = f"_sub({operand2}, {rn})"
        elif mnemonic in ("add", "cmn"):
            arith = f"_add({rn}, {operand2})"
        elif mnemonic == "adc":
            arith = f"_add({rn}, {operand2}, c)"
        elif mnemonic == "sbc":
            arith = f"_sub({rn}, {operand2}, c)"
        elif mnemonic == "rsc":
            arith = f"_sub({operand2}, {rn}, c)"
        elif mnemonic == "orr":
            result = f"({rn} | {operand2})"
        elif mnemonic == "mov":
            result = f"{operand2}"
        elif mnemonic == "bic":
            result = f"({rn} & ~{operand2} & 0xFFFFFFFF)"
        else:  # mvn
            result = f"(~{operand2} & 0xFFFFFFFF)"

        has_dest = instr.mnemonic not in ("tst", "teq", "cmp", "cmn")
        if arith is not None:
            if instr.sets_flags:
                self.emit(f"_t, c, v = {arith}")
            else:
                self.emit(f"_t = {arith}[0]")
            value = "_t"
        else:
            self.emit(f"_t = {result} & 0xFFFFFFFF")
            value = "_t"
            if instr.sets_flags and shifter_carry is not None:
                self.emit(f"c = {shifter_carry}")
        if instr.sets_flags:
            self.emit(f"n = ({value} >> 31) & 1")
            self.emit(f"z = 1 if {value} == 0 else 0")
        if has_dest:
            self.emit(f"r[{instr.rd}] = {value}")

    def _emit_mul(self, instr: ArmInstruction) -> None:
        rm = self._reg(instr.rm, instr.addr)
        rs = self._reg(instr.rs, instr.addr)
        expression = f"({rm} * {rs}"
        if instr.accumulate:
            expression += f" + {self._reg(instr.rn, instr.addr)}"
        expression += ") & 0xFFFFFFFF"
        self.emit(f"_t = {expression}")
        self.emit(f"r[{instr.rd}] = _t")
        if instr.s:
            self.emit("n = (_t >> 31) & 1")
            self.emit("z = 1 if _t == 0 else 0")

    def _emit_mull(self, instr: ArmInstruction) -> None:
        rm = self._reg(instr.rm, instr.addr)
        rs = self._reg(instr.rs, instr.addr)
        if instr.signed_mul:
            a = f"({rm} - 0x100000000 if {rm} & 0x80000000 else {rm})"
            b = f"({rs} - 0x100000000 if {rs} & 0x80000000 else {rs})"
        else:
            a, b = rm, rs
        self.emit(f"_p = {a} * {b}")
        if instr.accumulate:
            self.emit(f"_p += (r[{instr.rdhi}] << 32) | r[{instr.rdlo}]")
        self.emit("_p &= 0xFFFFFFFFFFFFFFFF")
        self.emit(f"r[{instr.rdlo}] = _p & 0xFFFFFFFF")
        self.emit(f"r[{instr.rdhi}] = (_p >> 32) & 0xFFFFFFFF")
        if instr.s:
            self.emit("n = (_p >> 63) & 1")
            self.emit("z = 1 if _p == 0 else 0")

    def _emit_ldst(self, instr: ArmInstruction) -> None:
        base = self._reg(instr.rn, instr.addr)
        if instr.has_imm:
            offset = str(instr.imm)
        else:
            value, _ = self._shifter_mem(instr)
            offset = value if instr.up else f"-({value})"
        self.emit(f"_a = ({base} + {offset}) & 0xFFFFFFFF")
        if instr.is_load:
            if instr.byte:
                self.emit(f"r[{instr.rd}] = memory.read_byte(_a)")
            else:
                self.emit(f"r[{instr.rd}] = memory.read_word(_a & 0xFFFFFFFC)")
        else:
            source = self._reg(instr.rd, instr.addr)
            if instr.byte:
                self.emit(f"memory.write_byte(_a, {source} & 0xFF)")
            else:
                self.emit(f"memory.write_word(_a & 0xFFFFFFFC, {source})")

    def _emit_block_transfer(self, instr: ArmInstruction, load_pc: bool) -> None:
        """LDM/STM unrolled at translation time (the register list and
        addressing mode are static)."""
        registers = [r for r in range(16) if instr.reglist & (1 << r)]
        count = len(registers)
        base = self._reg(instr.rn, instr.addr)
        if instr.up:
            start_off = 4 if instr.pre_index else 0
            wb = f"(({base} + {4 * count}) & 0xFFFFFFFF)"
        else:
            start_off = -4 * count + (0 if instr.pre_index else 4)
            wb = f"(({base} - {4 * count}) & 0xFFFFFFFF)"
        self.emit(f"_a = ({base} + {start_off}) & 0xFFFFFFFC")
        if instr.is_load:
            wb_line = None
            if instr.writeback and not (instr.reglist & (1 << instr.rn)):
                wb_line = f"r[{instr.rn}] = {wb}"
            loads = []
            for i, reg in enumerate(registers):
                if reg == PC:
                    loads.append(f"_t = memory.read_word((_a + {4 * i}) & 0xFFFFFFFF)")
                else:
                    loads.append(f"r[{reg}] = memory.read_word((_a + {4 * i}) & 0xFFFFFFFF)")
            for line in loads:
                self.emit(line)
            if wb_line:
                self.emit(wb_line)
        else:
            for i, reg in enumerate(registers):
                self.emit(
                    f"memory.write_word((_a + {4 * i}) & 0xFFFFFFFF, "
                    f"{self._reg(reg, instr.addr)})"
                )
            if instr.writeback:
                self.emit(f"r[{instr.rn}] = {wb}")

    def _shifter_mem(self, instr: ArmInstruction) -> Tuple[str, None]:
        value = self._reg(instr.rm, instr.addr)
        amount = instr.shift_amount
        kind = instr.shift_type
        if kind == 0 and amount == 0:
            return value, None
        if kind == 0:
            return f"(({value} << {amount}) & 0xFFFFFFFF)", None
        if kind == 1:
            return f"({value} >> {amount or 32})", None
        if kind == 2:
            amount = min(amount or 32, 31)
            return (f"((({value} - 0x100000000 if {value} & 0x80000000 else {value})"
                    f" >> {amount}) & 0xFFFFFFFF)"), None
        return f"((({value} >> {amount}) | ({value} << {32 - amount})) & 0xFFFFFFFF)", None

    def _emit_block_ender(self, instr: ArmInstruction, guard: Optional[str]) -> str:
        sequential = (instr.addr + 4) & 0xFFFFFFFF
        if instr.kind == "branch":
            target = (instr.addr + 8 + instr.imm) & 0xFFFFFFFF
            if instr.link:
                if guard:
                    self.emit(f"if {guard}:")
                    self._indent += 1
                    self.emit(f"r[14] = {sequential}")
                    self.emit_early_return(str(target))
                    self._indent -= 1
                    return str(sequential)
                self.emit(f"r[14] = {sequential}")
                return str(target)
            if guard:
                return f"{target} if {guard} else {sequential}"
            return str(target)
        if instr.kind == "bx":
            expression = f"{self._reg(instr.rm, instr.addr)} & 0xFFFFFFFE"
            if guard:
                return f"({expression}) if {guard} else {sequential}"
            return expression
        if instr.kind == "swi":
            # spill flags, call the handler, re-enter the dispatch loop
            self.emit("state.flag_n, state.flag_z, state.flag_c, state.flag_v = n, z, c, v")
            call = f"syscalls.handle(state, {instr.swi_number})"
            if guard:
                self.emit(f"if {guard}:")
                self.emit(f"    {call}")
            else:
                self.emit(call)
            self.emit("n, z, c, v = state.flag_n, state.flag_z, state.flag_c, state.flag_v")
            return str(sequential)
        # dp/ldst writing the PC
        if instr.kind == "ldst":
            self._emit_ldst_to_pc(instr)
            expression = "_t & 0xFFFFFFFC"
        else:
            operand2, _ = self._shifter(instr, False)
            if instr.mnemonic == "mov":
                expression = f"{operand2} & 0xFFFFFFFC"
            else:
                rn = self._reg(instr.rn, instr.addr)
                expression = f"(({rn} + {operand2}) & 0xFFFFFFFC)"
        if guard:
            return f"({expression}) if {guard} else {sequential}"
        return expression

    def _emit_ldst_to_pc(self, instr: ArmInstruction) -> None:
        base = self._reg(instr.rn, instr.addr)
        offset = str(instr.imm) if instr.has_imm else self._shifter_mem(instr)[0]
        self.emit(f"_t = memory.read_word(({base} + {offset}) & 0xFFFFFFFC)")

    # -- assembly of the function -------------------------------------------------

    def build(self, entry: int, n_instrs: int, return_expr: str) -> str:
        header = [
            f"def _block_{entry:x}(state, syscalls):",
            "    r = state.regs.values",
            "    memory = state.memory",
            "    n = state.flag_n; z = state.flag_z; c = state.flag_c; v = state.flag_v",
        ]
        footer = [
            "    state.flag_n, state.flag_z, state.flag_c, state.flag_v = n, z, c, v",
            f"    state.instret += {n_instrs}",
            f"    return {return_expr}",
        ]
        return "\n".join(header + self._lines + footer)


def _add(a: int, b: int, carry: int = 0):
    total = a + b + carry
    result = total & 0xFFFFFFFF
    carry_out = 1 if total > 0xFFFFFFFF else 0
    overflow = 1 if ((a ^ result) & (b ^ result)) >> 31 & 1 else 0
    return result, carry_out, overflow


def _sub(a: int, b: int, carry: int = 1):
    return _add(a, (~b) & 0xFFFFFFFF, carry)


class CompiledArmInterpreter:
    """Shade-style dynamically-compiling ISS for the ARM-like target.

    Basic blocks come from the shared :class:`~repro.iss.decode_cache.
    DecodeCache` (discovered at fetch time, invalidated by overlapping
    writes), and each block's translation is cached *on the block
    object* — so a store over translated code drops the stale
    translation together with the stale decode.  Only the code object
    is shared, through :mod:`repro.codecache`: the function, and the
    ``_b`` its store guards test, belong to the one block.
    """

    def __init__(self, program: Program, stdin: bytes = b"", stack_top: int = 0x80000):
        # the plain interpreter supplies state, syscalls and the decode
        # cache; whole-block translation makes execgen executors redundant
        interpreter = ArmInterpreter(program, stdin=stdin, stack_top=stack_top,
                                     specialize=False)
        self.state = interpreter.state
        self.syscalls = interpreter.syscalls
        self.decode_cache = interpreter.decode_cache
        self.program = program
        self.blocks_compiled = 0
        self.block_runs = 0

    # -- translation -----------------------------------------------------------

    def _translate_block(self, block) -> Callable:
        """``fn(state, syscalls) -> next_pc`` for *block*, compiled from
        :class:`BlockTranslator` source."""
        translator = BlockTranslator()
        count = 0
        return_expr: Optional[str] = None
        for instr in block.instrs:
            if instr.kind == "udf":
                raise IssError(
                    f"undefined instruction at {instr.addr:#x}: {instr.word:#010x}")
            count += 1
            translator.instr_count = count
            return_expr = translator.translate(instr)
        if return_expr is None:
            # block-length limit (or decode ran off memory): continue at
            # the next sequential address
            return_expr = str(block.end & 0xFFFFFFFF)
        entry = block.entry
        source = translator.build(entry, count, return_expr)
        namespace = {"_add": _add, "_sub": _sub, "_b": block}
        exec(compile_cached(source, f"<block {entry:#x}>"), namespace)
        fn = namespace[f"_block_{entry:x}"]
        fn.__block_source__ = source  # transcheck introspection (TRV005)
        return fn

    # -- execution ----------------------------------------------------------------

    def run(self, max_blocks: int = 10_000_000) -> int:
        """Run to the exit syscall; returns the exit code."""
        state = self.state
        syscalls = self.syscalls
        fetch_block = self.decode_cache.fetch_block
        while not state.halted:
            if self.block_runs >= max_blocks:
                raise IssError(f"program exceeded {max_blocks} blocks")
            block = fetch_block(state.pc)
            fn = block.compiled
            if fn is None:
                fn = self._translate_block(block)
                block.compiled = fn
                self.blocks_compiled += 1
            state.pc = fn(state, syscalls)
            self.block_runs += 1
        return state.exit_code

    @property
    def steps(self) -> int:
        return self.state.instret
