"""ARM-like assembler syntax plugin.

Accepts the conventional ``op{cond}{s}`` mnemonic grammar (``addeqs``,
``blt``, ``movs``, ...), register aliases (``sp``/``lr``/``pc``/...),
immediate ``#expr`` operands, barrel-shifter operands
(``r1, lsl #2``), and ``[rn, #off]`` / ``[rn, rm]`` addressing.

Pseudo-instructions::

    nop                      -> mov r0, r0
    li  rd, expr             -> 4-word mov/orr sequence loading any 32-bit value
    ldr rd, =expr            -> alias for li (GNU-style constant load)
    b   label  (and friends) -> branch with assembler-computed offset
"""

from __future__ import annotations

import functools
import struct
from typing import List, Optional, Tuple

from ..assembler import AsmContext, AssemblyError, IsaSyntax, split_operands
from . import encode
from .isa import CONDITIONS, COND_AL, DP_NO_DEST, DP_NO_RN, DP_OPCODES, REGISTER_ALIASES, SHIFT_TYPES

_DP_BASES = set(DP_OPCODES)
_MUL_BASES = {"mul", "mla", "umull", "smull", "umlal", "smlal"}
_LDST_BASES = {"ldr", "str", "ldrb", "strb"}
_BLOCK_BASES = {
    # mnemonic: (load, pre, up)
    "ldmia": (1, 0, 1), "ldmib": (1, 1, 1), "ldmda": (1, 0, 0), "ldmdb": (1, 1, 0),
    "stmia": (0, 0, 1), "stmib": (0, 1, 1), "stmda": (0, 0, 0), "stmdb": (0, 1, 0),
    # stack aliases (full-descending, the ARM convention)
    "ldmfd": (1, 0, 1), "stmfd": (0, 1, 0),
}
_BRANCH_BASES = {"b", "bl"}
_OTHER_BASES = {"bx", "swi", "nop", "li", "push", "pop"}
_ALL_BASES = sorted(
    _DP_BASES | _MUL_BASES | _LDST_BASES | _BRANCH_BASES | _OTHER_BASES
    | set(_BLOCK_BASES),
    key=len,
    reverse=True,
)
_S_ALLOWED = _DP_BASES | _MUL_BASES


@functools.lru_cache(maxsize=1024)
def parse_mnemonic(mnemonic: str) -> Optional[Tuple[str, int, int]]:
    """Split ``op{cond}{s}`` into (base, cond, s); None if unparseable.

    Longest-base-first with backtracking resolves the classic ambiguities:
    ``blt`` is ``b``+``lt`` (because ``t`` is not a suffix of ``bl``) while
    ``bllt`` is ``bl``+``lt``, and ``bls`` is ``b``+``ls`` (branches take
    no S bit).
    """
    for base in _ALL_BASES:
        if not mnemonic.startswith(base):
            continue
        rest = mnemonic[len(base) :]
        if rest.endswith("s") and base in _S_ALLOWED:
            candidate = rest[:-1]
            if candidate == "" or candidate in CONDITIONS:
                cond = CONDITIONS.get(candidate, COND_AL)
                return base, cond, 1
        if rest == "":
            return base, COND_AL, 0
        if rest in CONDITIONS:
            return base, CONDITIONS[rest], 0
    return None


def _loads_constant(base: str, ops: List[str]) -> bool:
    """Whether a statement is the 16-byte constant load: ``li rd, expr``
    or ``ldr rd, =expr``.  Sizing and encoding both ask this."""
    return base == "li" or (base == "ldr" and len(ops) == 2 and ops[1].startswith("="))


def parse_register(text: str, ctx: AsmContext) -> int:
    name = text.strip().lower()
    if name in REGISTER_ALIASES:
        return REGISTER_ALIASES[name]
    raise ctx.error(f"expected register, got {text!r}")


def _parse_shift(parts: List[str], ctx: AsmContext) -> Tuple[int, int]:
    """Parse trailing ``lsl #n`` style shift operand parts."""
    if not parts:
        return 0, 0
    if len(parts) != 1:
        raise ctx.error(f"too many shift operands: {parts!r}")
    tokens = parts[0].split()
    if len(tokens) != 2 or tokens[0].lower() not in SHIFT_TYPES:
        raise ctx.error(f"bad shift operand {parts[0]!r}")
    shift_type = SHIFT_TYPES[tokens[0].lower()]
    amount_text = tokens[1]
    if not amount_text.startswith("#"):
        raise ctx.error("shift amount must be an immediate (#n)")
    amount = ctx.eval(amount_text[1:])
    if not 0 <= amount < 32:
        raise ctx.error(f"shift amount {amount} out of range 0..31")
    return shift_type, amount


class ArmSyntax(IsaSyntax):
    """Assembler plugin for the ARM-like target."""

    word_size = 4

    def statement_size(self, mnemonic: str, ops: List[str]) -> int:
        parsed = parse_mnemonic(mnemonic)
        if parsed is None:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}")
        return 16 if _loads_constant(parsed[0], ops) else 4

    def encode_statement(self, mnemonic: str, ops: List[str], ctx: AsmContext) -> bytes:
        parsed = parse_mnemonic(mnemonic)
        if parsed is None:
            raise ctx.error(f"unknown mnemonic {mnemonic!r}")
        base, cond, s = parsed
        if base == "nop":
            if ops:
                raise ctx.error("nop takes no operands")
            words = [encode.dp_register(cond, DP_OPCODES["mov"], 0, 0, 0, 0)]
        elif _loads_constant(base, ops):
            words = self._encode_li(base, cond, ops, ctx)
        elif base in _DP_BASES:
            words = [self._encode_dp(base, cond, s, ops, ctx)]
        elif base in _MUL_BASES:
            words = [self._encode_mul(base, cond, s, ops, ctx)]
        elif base in _LDST_BASES:
            words = [self._encode_ldst(base, cond, ops, ctx)]
        elif base in _BLOCK_BASES or base in ("push", "pop"):
            words = [self._encode_block(base, cond, ops, ctx)]
        elif base in _BRANCH_BASES:
            words = [self._encode_branch(base, cond, ops, ctx)]
        elif base == "bx":
            if len(ops) != 1:
                raise ctx.error("bx needs one register")
            words = [encode.branch_exchange(cond, parse_register(ops[0], ctx))]
        elif base == "swi":
            if len(ops) > 1:
                raise ctx.error("swi takes at most one operand")
            number = ctx.eval(ops[0].lstrip("#")) if ops else 0
            words = [encode.software_interrupt(cond, number)]
        else:  # pragma: no cover - bases exhausted above
            raise ctx.error(f"unhandled mnemonic {mnemonic!r}")
        return struct.pack(f"<{len(words)}I", *words)

    # -- per-class encoders ---------------------------------------------------

    def _encode_li(self, base: str, cond: int, ops: List[str], ctx: AsmContext) -> List[int]:
        if len(ops) != 2:
            raise ctx.error("li needs 2 operands: rd, expr")
        rd = parse_register(ops[0], ctx)
        expr = ops[1].lstrip("=").lstrip("#")
        value = ctx.eval(expr) & 0xFFFFFFFF
        mov_op = DP_OPCODES["mov"]
        orr_op = DP_OPCODES["orr"]
        return [
            encode.dp_immediate(cond, mov_op, 0, 0, rd, value & 0xFF),
            encode.dp_immediate(cond, orr_op, 0, rd, rd, value & 0xFF00),
            encode.dp_immediate(cond, orr_op, 0, rd, rd, value & 0xFF0000),
            encode.dp_immediate(cond, orr_op, 0, rd, rd, value & 0xFF000000),
        ]

    def _encode_dp(self, base: str, cond: int, s: int, ops: List[str], ctx: AsmContext) -> int:
        opcode = DP_OPCODES[base]
        if base in DP_NO_DEST:
            if len(ops) < 2:
                raise ctx.error(f"{base} needs 2 operands")
            rd, rn = 0, parse_register(ops[0], ctx)
            operand2 = ops[1]
            shift_parts = ops[2:]
            s = 1
        elif base in DP_NO_RN:
            if len(ops) < 2:
                raise ctx.error(f"{base} needs 2 operands")
            rd, rn = parse_register(ops[0], ctx), 0
            operand2 = ops[1]
            shift_parts = ops[2:]
        else:
            if len(ops) < 3:
                raise ctx.error(f"{base} needs 3 operands")
            rd = parse_register(ops[0], ctx)
            rn = parse_register(ops[1], ctx)
            operand2 = ops[2]
            shift_parts = ops[3:]
        if operand2.startswith("#"):
            if shift_parts:
                raise ctx.error("immediate operand cannot be shifted")
            value = ctx.eval(operand2[1:]) & 0xFFFFFFFF
            if encode.encode_rotated_immediate(value) is None:
                # canonical trick: flip MOV<->MVN / AND<->BIC / CMP<->CMN etc.
                flipped = self._flip_immediate(base, value)
                if flipped is None:
                    raise ctx.error(
                        f"immediate {value:#x} not encodable; use li/ldr ="
                    )
                opcode, value = flipped
            return encode.dp_immediate(cond, opcode, s, rn, rd, value)
        rm = parse_register(operand2, ctx)
        shift_type, shift_amount = _parse_shift(shift_parts, ctx)
        return encode.dp_register(cond, opcode, s, rn, rd, rm, shift_type, shift_amount)

    @staticmethod
    def _flip_immediate(base: str, value: int) -> Optional[Tuple[int, int]]:
        complements = {
            "mov": ("mvn", ~value & 0xFFFFFFFF),
            "mvn": ("mov", ~value & 0xFFFFFFFF),
            "and": ("bic", ~value & 0xFFFFFFFF),
            "bic": ("and", ~value & 0xFFFFFFFF),
            "add": ("sub", -value & 0xFFFFFFFF),
            "sub": ("add", -value & 0xFFFFFFFF),
            "cmp": ("cmn", -value & 0xFFFFFFFF),
            "cmn": ("cmp", -value & 0xFFFFFFFF),
        }
        if base not in complements:
            return None
        other, new_value = complements[base]
        if encode.encode_rotated_immediate(new_value) is None:
            return None
        return DP_OPCODES[other], new_value

    def _encode_mul(self, base: str, cond: int, s: int, ops: List[str], ctx: AsmContext) -> int:
        regs = [parse_register(op, ctx) for op in ops]
        if base == "mul":
            if len(regs) != 3:
                raise ctx.error("mul needs rd, rm, rs")
            return encode.multiply(cond, 0, s, regs[0], 0, regs[2], regs[1])
        if base == "mla":
            if len(regs) != 4:
                raise ctx.error("mla needs rd, rm, rs, rn")
            return encode.multiply(cond, 1, s, regs[0], regs[3], regs[2], regs[1])
        if len(regs) != 4:
            raise ctx.error(f"{base} needs rdlo, rdhi, rm, rs")
        signed = 1 if base.startswith("s") else 0
        accumulate = 1 if base.endswith("lal") else 0
        rdlo, rdhi, rm, rs = regs
        return encode.multiply_long(cond, signed, accumulate, s, rdhi, rdlo, rs, rm)

    def _encode_ldst(self, base: str, cond: int, ops: List[str], ctx: AsmContext) -> int:
        load = 1 if base.startswith("ldr") else 0
        byte = 1 if base.endswith("b") else 0
        if len(ops) != 2:
            raise ctx.error(f"{base} needs rd, [address]")
        rd = parse_register(ops[0], ctx)
        address = ops[1].strip()
        if not (address.startswith("[") and address.endswith("]")):
            raise ctx.error(f"bad address operand {address!r}")
        inner = split_operands(address[1:-1])
        rn = parse_register(inner[0], ctx)
        if len(inner) == 1:
            return encode.load_store_immediate(cond, load, byte, rn, rd, 0)
        offset = inner[1].strip()
        if offset.startswith("#"):
            value = ctx.eval(offset[1:])
            if len(inner) > 2:
                raise ctx.error("immediate offset cannot be shifted")
            return encode.load_store_immediate(cond, load, byte, rn, rd, value)
        up = 1
        if offset.startswith("-"):
            up = 0
            offset = offset[1:]
        rm = parse_register(offset, ctx)
        shift_type, shift_amount = _parse_shift(inner[2:], ctx)
        return encode.load_store_register(
            cond, load, byte, rn, rd, rm, shift_type, shift_amount, up
        )

    def _encode_block(self, base: str, cond: int, ops: List[str], ctx: AsmContext) -> int:
        """ldm/stm families plus the push/pop stack aliases."""
        if base == "push":
            reglist = self._parse_reglist(", ".join(ops), ctx)
            return encode.block_transfer(cond, 0, 13, reglist, pre=1, up=0, writeback=1)
        if base == "pop":
            reglist = self._parse_reglist(", ".join(ops), ctx)
            return encode.block_transfer(cond, 1, 13, reglist, pre=0, up=1, writeback=1)
        load, pre, up = _BLOCK_BASES[base]
        if len(ops) < 2:
            raise ctx.error(f"{base} needs a base register and a register list")
        base_text = ops[0].strip()
        writeback = 1 if base_text.endswith("!") else 0
        rn = parse_register(base_text.rstrip("!"), ctx)
        reglist = self._parse_reglist(", ".join(ops[1:]), ctx)
        return encode.block_transfer(cond, load, rn, reglist, pre, up, writeback)

    def _parse_reglist(self, text: str, ctx: AsmContext) -> int:
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise ctx.error(f"expected register list in braces, got {text!r}")
        reglist = 0
        for part in split_operands(text[1:-1]):
            part = part.strip()
            if "-" in part:
                lo_text, hi_text = part.split("-", 1)
                lo = parse_register(lo_text, ctx)
                hi = parse_register(hi_text, ctx)
                if hi < lo:
                    raise ctx.error(f"bad register range {part!r}")
                for reg in range(lo, hi + 1):
                    reglist |= 1 << reg
            elif part:
                reglist |= 1 << parse_register(part, ctx)
        if reglist == 0:
            raise ctx.error("empty register list")
        return reglist

    def _encode_branch(self, base: str, cond: int, ops: List[str], ctx: AsmContext) -> int:
        if len(ops) != 1:
            raise ctx.error(f"{base} needs a target")
        target = ctx.eval(ops[0])
        delta = target - (ctx.address + 8)
        if delta % 4:
            raise ctx.error(f"branch target {target:#x} not word aligned")
        link = 1 if base == "bl" else 0
        return encode.branch(cond, link, delta >> 2)
