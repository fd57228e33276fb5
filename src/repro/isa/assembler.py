"""Generic two-pass assembler core.

Both target ISAs share this driver: it handles source-line parsing, labels,
directives, the symbol table and expression evaluation; per-ISA syntax
plugins (:mod:`repro.isa.arm.syntax`, :mod:`repro.isa.ppc.syntax`) translate
individual instruction statements into machine words.

Supported directives::

    .text / .data          switch section
    .org ADDR              set location counter within the section
    .align N               pad to a 2**N boundary
    .word E [, E ...]      32-bit little-endian words
    .half E [, E ...]      16-bit values
    .byte E [, E ...]      8-bit values
    .space N [, FILL]      N fill bytes
    .ascii "S" / .asciz "S" string data (asciz adds a NUL)
    .equ NAME, E           define a symbol
    .globl NAME            accepted and ignored (ELF compatibility)

Comments start with ``;``, ``@`` or ``//``.  Labels are ``name:`` at the
start of a line.  Expressions support labels, ``.`` (the current address),
decimal/hex/binary/char literals and the operators ``+ - * / % << >> & | ^``
with parentheses and unary ``+ - ~``; they bind as in Python, and ``/``
floors.

Pass 1 scans each line once: it strips the comment, takes the labels,
splits the operands and sizes the statement.  Pass 2 evaluates the kept
operands and encodes.

Errors: every malformed source raises :class:`AssemblyError` whose message
starts ``line N:``, N being the 1-based source line: an unknown mnemonic or
directive, a bad, missing or surplus operand (``nop r1``, ``.asciz "s" 1``:
no operand is ever dropped), expression or literal (``0123``), an undefined
symbol, a division by zero, a negative ``.space``, an ``.org`` below the
section base, or overlapping emission.  Pass 1 also bounds what a line can
make pass 2 allocate: it rejects a location counter past 2**32 and a section
that would span more than :data:`MAX_SECTION_BYTES`, so ``.space 0x7fffffff``,
``.align 40`` or a far ``.org`` fails before any image is built.  An
expression fails when a value it computes grows wider than
:data:`MAX_VALUE_BITS` (``1 << 0x7fffffff``).
"""

from __future__ import annotations

import operator
import re
import struct
from typing import Dict, List, Optional, Tuple

from .program import Program

DEFAULT_TEXT_BASE = 0x8000
DEFAULT_DATA_BASE = 0x40000

#: largest section image one program may build (the largest bundled
#: section, MediaBench at scale 16, is about 6 KB)
MAX_SECTION_BYTES = 16 << 20
#: widest value an expression may compute: ``1 << 0x7fffffff`` alone would
#: take 256 MiB, long before its value is masked to a word
MAX_VALUE_BITS = 4096


class AssemblyError(Exception):
    """A source-level assembly error, annotated with file line number."""

    def __init__(self, message: str, lineno: Optional[int] = None, line: str = ""):
        self.lineno = lineno
        self.line = line
        prefix = f"line {lineno}: " if lineno is not None else ""
        suffix = f"\n    {line.strip()}" if line else ""
        super().__init__(f"{prefix}{message}{suffix}")


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)"
    r"|(?P<char>'(?:\\.|[^'])')"
    r"|(?P<name>[.A-Za-z_$][.\w$]*)"
    r"|(?P<op><<|>>|[-+*/%&|^~()])"
    r"|(?P<bad>\S)"
    r")"
)
#: an expression that is one number or one name
_ATOM_RE = re.compile(r"\s*(?:(0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)|([.A-Za-z_$][.\w$]*))\s*\Z")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", "'": "'", '"': '"'}

#: binary operator -> (precedence, function); unary operators bind tighter
#: than all of them and an open parenthesis looser
_PREFIX = 7
_BINARY = {
    "|": (1, operator.or_), "^": (2, operator.xor), "&": (3, operator.and_),
    "<<": (4, operator.lshift), ">>": (4, operator.rshift),
    "+": (5, operator.add), "-": (5, operator.sub),
    "*": (6, operator.mul), "/": (6, operator.floordiv), "%": (6, operator.mod),
}
_UNARY = {"-": (_PREFIX, operator.neg), "+": (_PREFIX, operator.pos),
          "~": (_PREFIX, operator.invert)}
_OPEN = (0, None)


def _literal(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblyError(f"invalid literal {text!r}") from None


def _atom(kind: str, token: str, symbols: Dict[str, int], here: int) -> int:
    if kind == "num":
        return _literal(token)
    if kind == "char":
        body = token[1:-1]
        if body == "\\":
            raise AssemblyError(f"bad character literal {token!r}")
        return ord(_ESCAPES.get(body[1], body[1]) if len(body) == 2 else body)
    if token == ".":
        return here
    try:
        return symbols[token]
    except KeyError:
        raise AssemblyError(f"undefined symbol {token!r}") from None


def evaluate(text: str, symbols: Dict[str, int], here: int = 0) -> int:
    """The value of expression *text*; ``.`` reads *here*."""
    match = _ATOM_RE.match(text)
    if match is not None:
        number, name = match.groups()
        return _literal(number) if number else _atom("name", name, symbols, here)
    values: List[int] = []
    pending: List[tuple] = []  # operators not yet applied, and open parentheses
    operand = True  # the next token starts an operand
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        token = match.group(kind)
        if kind == "bad":
            raise AssemblyError(f"bad expression near {text[match.start():]!r}")
        if operand:
            if kind != "op":
                values.append(_atom(kind, token, symbols, here))
                operand = False
            elif token in _UNARY:
                pending.append(_UNARY[token])
            elif token == "(":
                pending.append(_OPEN)
            else:
                raise AssemblyError(f"unexpected operator {token!r}")
        elif token == ")" and _OPEN in pending:
            while pending[-1] is not _OPEN:
                _apply(pending.pop(), values, text)
            pending.pop()
        elif token in _BINARY:
            entry = _BINARY[token]
            while pending and pending[-1][0] >= entry[0]:
                _apply(pending.pop(), values, text)
            pending.append(entry)
            operand = True
        elif _OPEN in pending:
            raise AssemblyError("missing ')' in expression")
        else:
            raise AssemblyError(f"unexpected {token!r} in expression {text!r}")
    if operand:
        raise AssemblyError("unexpected end of expression" if values or pending
                            else f"empty expression in {text!r}")
    while pending:
        if pending[-1] is _OPEN:
            raise AssemblyError("unexpected end of expression")
        _apply(pending.pop(), values, text)
    return values[0]


def _apply(entry: tuple, values: List[int], text: str) -> None:
    precedence, function = entry
    if precedence == _PREFIX:
        values[-1] = function(values[-1])
        return
    rhs = values.pop()
    if function is operator.lshift and rhs > MAX_VALUE_BITS:
        raise AssemblyError(f"shift count {rhs} too large in expression {text!r}")
    try:
        value = function(values[-1], rhs)
    except (ArithmeticError, ValueError) as exc:
        raise AssemblyError(f"{exc} in expression {text!r}") from None
    if value.bit_length() > MAX_VALUE_BITS:
        raise AssemblyError(f"value wider than {MAX_VALUE_BITS} bits in expression {text!r}")
    values[-1] = value


class ExpressionEvaluator:
    """Evaluates expressions over a symbol table, ``.`` reading *here*."""

    def __init__(self, symbols: Dict[str, int], here: int = 0):
        self.symbols = symbols
        self.here = here

    def eval(self, text: str) -> int:
        return evaluate(text, self.symbols, self.here)


# ---------------------------------------------------------------------------
# the assembler driver
# ---------------------------------------------------------------------------

_NESTING_RE = re.compile(r"[()\[\]{}\"']")


def split_operands(text: str) -> List[str]:
    """Split an operand string on top-level commas (brackets/quotes nest)."""
    if _NESTING_RE.search(text) is None:
        return [part.strip() for part in text.split(",")] if text.strip() else []
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    in_string: Optional[str] = None
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            current.append(ch)
            if ch == "\\":
                if i + 1 < len(text):
                    current.append(text[i + 1])
                    i += 1
            elif ch == in_string:
                in_string = None
        elif ch in "\"'":
            in_string = ch
            current.append(ch)
        elif ch in "([{":
            depth += 1
            current.append(ch)
        elif ch in ")]}":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
        i += 1
    tail = "".join(current).strip()
    if tail or parts:
        parts.append(tail)
    return parts


class Statement:
    """One parsed source statement (after label extraction)."""

    __slots__ = ("lineno", "line", "mnemonic", "operands", "ops", "section", "address", "size")

    def __init__(self, lineno: int, line: str, mnemonic: str, operands: str,
                 section: str, address: int):
        self.lineno = lineno
        self.line = line
        self.mnemonic = mnemonic
        self.operands = operands
        #: the operands split on top-level commas, once, in pass 1
        self.ops = split_operands(operands) if operands else []
        self.section = section
        self.address = address
        self.size = 0


class IsaSyntax:
    """Per-ISA assembler plugin interface."""

    #: instruction width in bytes for fixed-width ISAs
    word_size = 4

    def statement_size(self, mnemonic: str, ops: List[str]) -> int:
        """Byte size of the statement, its operands split by
        :func:`split_operands` (pseudo-ops may expand to several words;
        must be computable without the symbol table)."""
        raise NotImplementedError

    def encode_statement(self, mnemonic: str, ops: List[str], ctx: "AsmContext") -> bytes:
        """Encode the statement, its operands split by :func:`split_operands`,
        to bytes; may consult ``ctx`` for symbols and the current address."""
        raise NotImplementedError


class AsmContext:
    """Evaluation context handed to syntax plugins during pass 2."""

    def __init__(self, symbols: Dict[str, int], address: int, lineno: int, line: str):
        self.symbols = symbols
        self.address = address
        self.lineno = lineno
        self.line = line

    def eval(self, expr: str) -> int:
        try:
            return evaluate(expr, self.symbols, self.address)
        except AssemblyError as exc:
            raise AssemblyError(str(exc), self.lineno, self.line) from None

    def error(self, message: str) -> AssemblyError:
        return AssemblyError(message, self.lineno, self.line)


#: the code part of a line: everything before a ``;``, ``@`` or ``//`` that
#: is not inside a quoted string (a backslash escapes the next character)
_CODE_RE = re.compile(r"""(?:[^;@/"']+|/(?!/)|"(?:[^"\\]|\\.?)*"?|'(?:[^'\\]|\\.?)*'?)*""", re.S)
_LABEL_RE = re.compile(r"^([.A-Za-z_$][\w$.]*):\s*(.*)$")
_STRING_RE = re.compile(r'"((?:\\.|[^"\\])*)"')
#: data directive -> (struct code, bytes per value, mask)
_PACK = {".word": ("I", 4, 0xFFFFFFFF), ".half": ("H", 2, 0xFFFF), ".byte": ("B", 1, 0xFF)}


def _unescape(text: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            out.append(ord(_ESCAPES.get(text[i + 1], text[i + 1])))
            i += 2
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)


class Assembler:
    """The shared two-pass driver."""

    def __init__(
        self,
        syntax: IsaSyntax,
        text_base: int = DEFAULT_TEXT_BASE,
        data_base: int = DEFAULT_DATA_BASE,
    ):
        self.syntax = syntax
        self.bases = {".text": text_base, ".data": data_base}

    # -- public API -----------------------------------------------------------

    def assemble(self, source: str, entry_symbol: str = "_start") -> Program:
        """Assemble *source* and return a loadable :class:`Program`."""
        statements, symbols = self._pass1(source)
        images = self._pass2(statements, symbols)
        program = Program()
        for name, (base, blob) in images.items():
            if blob:
                program.add_section(name, base, bytes(blob))
        program.symbols = symbols
        program.entry = symbols.get(entry_symbol, self.bases[".text"])
        return program

    # -- pass 1: sizing and symbol collection ---------------------------------

    def _pass1(self, source: str):
        symbols: Dict[str, int] = {}
        counters = dict(self.bases)
        section = ".text"
        statements: List[Statement] = []

        for lineno, raw in enumerate(source.splitlines(), start=1):
            text = _CODE_RE.match(raw).group().strip()
            while ":" in text:
                match = _LABEL_RE.match(text)
                if match is None:
                    break
                name = match.group(1)
                if name in symbols:
                    raise AssemblyError(f"duplicate label {name!r}", lineno, raw)
                symbols[name] = counters[section]
                text = match.group(2).strip()
            if not text:
                continue
            parts = text.split(None, 1)
            mnemonic = parts[0].lower()
            operands = parts[1] if len(parts) > 1 else ""
            address = counters[section]
            try:
                if not mnemonic.startswith("."):
                    stmt = Statement(lineno, raw, mnemonic, operands, section, address)
                    stmt.size = self.syntax.statement_size(mnemonic, stmt.ops)
                elif mnemonic in (".text", ".data"):
                    section = mnemonic
                    continue
                elif mnemonic in (".globl", ".global"):
                    continue
                elif mnemonic in (".equ", ".set"):
                    # evaluated immediately: .equ constants must precede use
                    name, _, expr = operands.partition(",")
                    symbols[name.strip()] = evaluate(expr, symbols)
                    continue
                elif mnemonic == ".org":
                    value = evaluate(operands, symbols, address)
                    if value < address and value < self.bases[section]:
                        raise AssemblyError(".org moves backwards")
                    if value > 1 << 32:
                        raise AssemblyError(f"location counter {value:#x} is past 2**32")
                    counters[section] = value
                    continue
                else:
                    stmt = Statement(lineno, raw, mnemonic, operands, section, address)
                    stmt.size = self._directive_size(stmt, symbols)
                end = address + stmt.size
                if end > 1 << 32:
                    raise AssemblyError(f"location counter {end:#x} is past 2**32")
                if end - self.bases[section] > MAX_SECTION_BYTES:
                    raise AssemblyError(
                        f"section {section} grows past {MAX_SECTION_BYTES} bytes")
            except AssemblyError as exc:
                raise AssemblyError(str(exc), lineno, raw) from None
            counters[section] = end
            statements.append(stmt)

        return statements, symbols

    def _directive_size(self, stmt: Statement, symbols: Dict[str, int]) -> int:
        mnemonic, ops = stmt.mnemonic, stmt.ops
        if mnemonic in _PACK:
            return _PACK[mnemonic][1] * len(ops)
        if mnemonic == ".space":
            if not 1 <= len(ops) <= 2:
                raise AssemblyError(".space takes a size and an optional fill byte")
            size = evaluate(ops[0], symbols)
            if size < 0:
                raise AssemblyError(f"negative .space size {size}")
            return size
        if mnemonic in (".ascii", ".asciz"):
            match = _STRING_RE.fullmatch(stmt.operands)
            if match is None:
                raise AssemblyError("expected one string literal")
            return len(_unescape(match.group(1))) + (1 if mnemonic == ".asciz" else 0)
        if mnemonic == ".align":
            power = evaluate(stmt.operands or "2", {})
            if power < 0:
                raise AssemblyError(f"negative .align power {power}")
            # any boundary past 2**32 pads as far out of the address space
            # as 2**33 does, so the bound in pass 1 rejects it alike
            return -stmt.address % (1 << min(power, 33))
        raise AssemblyError(f"unknown directive {mnemonic!r}")

    # -- pass 2: encoding -----------------------------------------------------

    def _pass2(self, statements: List[Statement], symbols: Dict[str, int]):
        images: Dict[str, Tuple[int, bytearray]] = {
            name: (base, bytearray()) for name, base in self.bases.items()
        }
        encode = self.syntax.encode_statement
        ctx = AsmContext(symbols, 0, 0, "")
        for stmt in statements:
            ctx.address, ctx.lineno, ctx.line = stmt.address, stmt.lineno, stmt.line
            mnemonic, ops = stmt.mnemonic, stmt.ops
            if not mnemonic.startswith("."):
                try:
                    blob = encode(mnemonic, ops, ctx)
                except AssemblyError:
                    raise
                except Exception as exc:
                    raise ctx.error(str(exc)) from exc
                if len(blob) != stmt.size:
                    raise ctx.error(
                        f"size mismatch for {mnemonic!r}: pass1 said {stmt.size}, "
                        f"pass2 produced {len(blob)}")
            elif mnemonic in _PACK:
                code, _, mask = _PACK[mnemonic]
                blob = struct.pack(f"<{len(ops)}{code}", *[ctx.eval(op) & mask for op in ops])
            elif mnemonic == ".space":
                fill = ctx.eval(ops[1]) & 0xFF if len(ops) > 1 else 0
                blob = bytes([fill]) * stmt.size
            elif mnemonic in (".ascii", ".asciz"):
                blob = _unescape(_STRING_RE.fullmatch(stmt.operands).group(1))
                if mnemonic == ".asciz":
                    blob += b"\x00"
            else:  # .align
                blob = bytes(stmt.size)
            base, image = images[stmt.section]
            offset = stmt.address - base
            if offset < len(image):
                raise ctx.error(f"overlapping emission at {stmt.address:#x}")
            image.extend(bytes(offset - len(image)))
            image.extend(blob)
        return images
