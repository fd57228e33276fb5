"""PowerPC-like assembler syntax plugin.

Accepts conventional PowerPC assembly for the implemented subset,
including the usual simplified mnemonics::

    li   r3, 5            -> addi r3, r0(0), 5
    lis  r3, 2            -> addis r3, 0, 2
    li32 r3, expr         -> lis + ori pair loading any 32-bit value
    mr   r3, r4           -> or r3, r4, r4
    nop                   -> ori r0, r0, 0
    sub  r3, r4, r5       -> subf r3, r5, r4
    slwi/srwi ra, rs, n   -> rlwinm forms
    beq/bne/blt/bgt/ble/bge/bdnz/bdz label
    mtlr/mflr/mtctr/mfctr rN

A trailing ``.`` on arithmetic/logical mnemonics sets the record (Rc)
bit, e.g. ``add.``; compares may name ``cr0`` explicitly or omit it.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from ..assembler import AsmContext, AssemblyError, IsaSyntax
from . import encode, isa

_D_ALU = {"addi": isa.OP_ADDI, "addic": isa.OP_ADDIC, "addis": isa.OP_ADDIS,
          "mulli": isa.OP_MULLI, "subfic": isa.OP_SUBFIC}
_D_LOGICAL = {"ori": isa.OP_ORI, "oris": isa.OP_ORIS, "xori": isa.OP_XORI, "andi.": isa.OP_ANDI}
_XO_ALU = {
    "add": isa.XO_ADD,
    "subf": isa.XO_SUBF,
    "subfc": isa.XO_SUBFC,
    "mullw": isa.XO_MULLW,
    "mulhw": isa.XO_MULHW,
    "divw": isa.XO_DIVW,
    "divwu": isa.XO_DIVWU,
}
_X_LOGICAL = {
    "and": isa.XO_AND,
    "or": isa.XO_OR,
    "xor": isa.XO_XOR,
    "slw": isa.XO_SLW,
    "srw": isa.XO_SRW,
    "sraw": isa.XO_SRAW,
}
_D_MEM = {"lwz": isa.OP_LWZ, "lbz": isa.OP_LBZ, "stw": isa.OP_STW, "stb": isa.OP_STB,
          "lhz": isa.OP_LHZ, "lha": isa.OP_LHA, "sth": isa.OP_STH}
_X_MEM = {"lwzx": isa.XO_LWZX, "lbzx": isa.XO_LBZX, "stwx": isa.XO_STWX, "stbx": isa.XO_STBX}
_SPR_MOVES = {
    "mtlr": (isa.XO_MTSPR, isa.SPR_LR),
    "mflr": (isa.XO_MFSPR, isa.SPR_LR),
    "mtctr": (isa.XO_MTSPR, isa.SPR_CTR),
    "mfctr": (isa.XO_MFSPR, isa.SPR_CTR),
}

_COMPARES = ("cmpw", "cmplw", "cmpwi", "cmplwi")
#: every mnemonic -> its operand count (a compare may name ``cr0`` first)
_ARITY = {
    **dict.fromkeys(("nop", "blr", "bctr", "bctrl", "sc"), 0),
    **dict.fromkeys(("b", "bl", *isa.BRANCH_CONDITIONS, *_SPR_MOVES), 1),
    **dict.fromkeys(("li", "lis", "li32", "mr", "neg", "extsb", "extsh", "cntlzw",
                     *_COMPARES, *_D_MEM), 2),
    **dict.fromkeys(("sub", "slwi", "srwi", "srawi", *_D_ALU, *_D_LOGICAL, *_XO_ALU,
                     *_X_LOGICAL, *_X_MEM), 3),
    "rlwinm": 5,
}


def _split_record(mnemonic: str) -> Tuple[str, int]:
    """``(base, Rc)``: a trailing ``.`` sets the record bit, except in
    ``andi.``, which always records."""
    if mnemonic.endswith(".") and mnemonic != "andi.":
        return mnemonic[:-1], 1
    return mnemonic, 0


def parse_register(text: str, ctx: AsmContext) -> int:
    name = text.strip().lower()
    if name.startswith("r") and name[1:].isdigit():
        reg = int(name[1:])
        if 0 <= reg < 32:
            return reg
    if name == "sp":
        return 1
    raise ctx.error(f"expected register, got {text!r}")


def _split_mem_operand(text: str, ctx: AsmContext) -> Tuple[str, str]:
    """Parse ``D(rA)`` into (displacement expression, register text)."""
    text = text.strip()
    if not text.endswith(")"):
        raise ctx.error(f"bad memory operand {text!r}")
    open_paren = text.rindex("(")
    return text[:open_paren].strip() or "0", text[open_paren + 1 : -1]


class PpcSyntax(IsaSyntax):
    """Assembler plugin for the PowerPC-like target."""

    word_size = 4

    def statement_size(self, mnemonic: str, ops: List[str]) -> int:
        if _split_record(mnemonic)[0] not in _ARITY:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}")
        return 8 if mnemonic == "li32" else 4

    def encode_statement(self, mnemonic: str, ops: List[str], ctx: AsmContext) -> bytes:
        words = self._encode(*_split_record(mnemonic), ops, ctx)
        return struct.pack(f"<{len(words)}I", *words)

    # -- encoding dispatch ------------------------------------------------------

    def _encode(self, base: str, rc: int, ops: List[str], ctx: AsmContext) -> List[int]:
        if base in _COMPARES and ops and ops[0].strip().lower() == "cr0":
            ops = ops[1:]
        if len(ops) != _ARITY[base]:
            raise ctx.error(f"{base} takes {_ARITY[base]} operand(s), got {len(ops)}")
        if base == "nop":
            return [encode.d_form(isa.OP_ORI, 0, 0, 0, signed=False)]
        if base == "li":
            return [encode.d_form(isa.OP_ADDI, parse_register(ops[0], ctx), 0, ctx.eval(ops[1]))]
        if base == "lis":
            return [encode.d_form(isa.OP_ADDIS, parse_register(ops[0], ctx), 0, ctx.eval(ops[1]))]
        if base == "li32":
            rd = parse_register(ops[0], ctx)
            value = ctx.eval(ops[1]) & 0xFFFFFFFF
            high = (value >> 16) & 0xFFFF
            low = value & 0xFFFF
            high_signed = high - 0x10000 if high & 0x8000 else high
            return [
                encode.d_form(isa.OP_ADDIS, rd, 0, high_signed),
                encode.d_form(isa.OP_ORI, rd, rd, low, signed=False),
            ]
        if base == "mr":
            rd = parse_register(ops[0], ctx)
            rs = parse_register(ops[1], ctx)
            return [encode.x_form(isa.XO_OR, rs, rd, rs, rc)]
        if base in _D_ALU:
            rd = parse_register(ops[0], ctx)
            ra = parse_register(ops[1], ctx)
            return [encode.d_form(_D_ALU[base], rd, ra, ctx.eval(ops[2]))]
        if base in _D_LOGICAL:
            opcd = _D_LOGICAL[base]
            ra = parse_register(ops[0], ctx)
            rs = parse_register(ops[1], ctx)
            return [encode.d_form(opcd, rs, ra, ctx.eval(ops[2]), signed=False)]
        if base in _XO_ALU:
            rd = parse_register(ops[0], ctx)
            ra = parse_register(ops[1], ctx)
            rb = parse_register(ops[2], ctx)
            return [encode.x_form(_XO_ALU[base], rd, ra, rb, rc)]
        if base == "sub":
            rd = parse_register(ops[0], ctx)
            ra = parse_register(ops[1], ctx)
            rb = parse_register(ops[2], ctx)
            return [encode.x_form(isa.XO_SUBF, rd, rb, ra, rc)]
        if base == "neg":
            rd = parse_register(ops[0], ctx)
            ra = parse_register(ops[1], ctx)
            return [encode.x_form(isa.XO_NEG, rd, ra, 0, rc)]
        if base in _X_LOGICAL:
            ra = parse_register(ops[0], ctx)
            rs = parse_register(ops[1], ctx)
            rb = parse_register(ops[2], ctx)
            return [encode.x_form(_X_LOGICAL[base], rs, ra, rb, rc)]
        if base in ("extsb", "extsh", "cntlzw"):
            xo = {"extsb": isa.XO_EXTSB, "extsh": isa.XO_EXTSH,
                  "cntlzw": isa.XO_CNTLZW}[base]
            ra = parse_register(ops[0], ctx)
            rs = parse_register(ops[1], ctx)
            return [encode.x_form(xo, rs, ra, 0, rc)]
        if base == "srawi":
            ra = parse_register(ops[0], ctx)
            rs = parse_register(ops[1], ctx)
            return [encode.srawi(rs, ra, ctx.eval(ops[2]), rc)]
        if base == "slwi":
            ra = parse_register(ops[0], ctx)
            rs = parse_register(ops[1], ctx)
            n = ctx.eval(ops[2])
            return [encode.rlwinm(rs, ra, n, 0, 31 - n, rc)]
        if base == "srwi":
            ra = parse_register(ops[0], ctx)
            rs = parse_register(ops[1], ctx)
            n = ctx.eval(ops[2])
            return [encode.rlwinm(rs, ra, (32 - n) & 31, n, 31, rc)]
        if base == "rlwinm":
            ra = parse_register(ops[0], ctx)
            rs = parse_register(ops[1], ctx)
            sh, mb, me = (ctx.eval(op) for op in ops[2:5])
            return [encode.rlwinm(rs, ra, sh, mb, me, rc)]
        if base in _COMPARES:
            ra = parse_register(ops[0], ctx)
            if base == "cmpw":
                return [encode.cmp_form(isa.XO_CMPW, ra, parse_register(ops[1], ctx))]
            if base == "cmplw":
                return [encode.cmp_form(isa.XO_CMPLW, ra, parse_register(ops[1], ctx))]
            opcd = isa.OP_CMPWI if base == "cmpwi" else isa.OP_CMPLWI
            return [encode.cmpi_form(opcd, ra, ctx.eval(ops[1]), signed=base == "cmpwi")]
        if base in _D_MEM:
            rt = parse_register(ops[0], ctx)
            disp_text, reg_text = _split_mem_operand(ops[1], ctx)
            ra = parse_register(reg_text, ctx)
            return [encode.d_form(_D_MEM[base], rt, ra, ctx.eval(disp_text))]
        if base in _X_MEM:
            rt = parse_register(ops[0], ctx)
            ra = parse_register(ops[1], ctx)
            rb = parse_register(ops[2], ctx)
            return [encode.x_form(_X_MEM[base], rt, ra, rb)]
        if base in ("b", "bl"):
            offset = ctx.eval(ops[0]) - ctx.address
            return [encode.i_form(offset, lk=1 if base == "bl" else 0)]
        if base in isa.BRANCH_CONDITIONS:
            bo, bi = isa.BRANCH_CONDITIONS[base]
            offset = ctx.eval(ops[0]) - ctx.address
            return [encode.b_form(bo, bi, offset)]
        if base == "blr":
            return [encode.xl_form(isa.XL_BCLR, isa.BO_ALWAYS, 0)]
        if base in ("bctr", "bctrl"):
            return [encode.xl_form(isa.XL_BCCTR, isa.BO_ALWAYS, 0, lk=1 if base == "bctrl" else 0)]
        if base in _SPR_MOVES:
            xo, spr = _SPR_MOVES[base]
            return [encode.spr_move(xo, parse_register(ops[0], ctx), spr)]
        if base == "sc":
            return [encode.sc_form()]
        raise ctx.error(f"unknown mnemonic {base!r}")
