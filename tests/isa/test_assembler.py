"""Tests for the generic two-pass assembler (directives, labels,
expressions, error reporting)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.worker import run_job
from repro.isa import assemble as assemble_for
from repro.isa.arm import ArmSyntax, assemble
from repro.isa.assembler import (
    MAX_SECTION_BYTES,
    Assembler,
    AssemblyError,
    ExpressionEvaluator,
    split_operands,
)


class TestDirectives:
    def test_word_half_byte(self):
        program = assemble("""
    .data
values: .word 0x11223344, 2
halves: .half 0x5566, 3
bytes:  .byte 1, 2, 3
""")
        data = program.sections[".data"]
        base = data.base
        assert program.symbols["values"] == base
        assert data.data[0:4] == bytes([0x44, 0x33, 0x22, 0x11])  # little endian
        assert data.data[8:10] == bytes([0x66, 0x55])
        assert data.data[12:15] == bytes([1, 2, 3])

    def test_ascii_and_asciz(self):
        program = assemble("""
    .data
a: .ascii "hi"
z: .asciz "hi"
""")
        data = program.sections[".data"].data
        assert bytes(data[0:2]) == b"hi"
        assert bytes(data[2:5]) == b"hi\x00"

    def test_string_escapes(self):
        program = assemble(r"""
    .data
s: .asciz "a\n\t\\\"b"
""")
        assert bytes(program.sections[".data"].data[:7]) == b'a\n\t\\"b\x00'

    def test_space_with_fill(self):
        program = assemble("""
    .data
gap: .space 4, 0xAB
""")
        assert bytes(program.sections[".data"].data[:4]) == b"\xab\xab\xab\xab"

    def test_align(self):
        program = assemble("""
    .data
    .byte 1
    .align 2
w:  .word 2
""")
        assert program.symbols["w"] % 4 == 0

    def test_equ(self):
        program = assemble("""
    .equ SIZE, 12
    .data
buf: .space SIZE
end:
""")
        assert program.symbols["end"] - program.symbols["buf"] == 12

    def test_org(self):
        program = assemble("""
    .text
    .org 0x9000
_start:
    nop
""")
        assert program.symbols["_start"] == 0x9000

    def test_globl_accepted(self):
        assemble("""
    .globl _start
    .text
_start:
    nop
""")


class TestLabels:
    def test_forward_reference(self):
        program = assemble("""
    .text
_start:
    b done
    nop
done:
    nop
""")
        assert program.symbols["done"] == program.symbols["_start"] + 8

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError, match="duplicate label"):
            assemble("""
    .text
x:  nop
x:  nop
""")

    def test_undefined_symbol_reports_line(self):
        with pytest.raises(AssemblyError, match="line 4.*undefined symbol"):
            assemble("""
    .text
_start:
    b nowhere
""")

    def test_label_on_same_line_as_instruction(self):
        program = assemble("""
    .text
_start: nop
""")
        assert program.entry == program.symbols["_start"]

    def test_entry_defaults_to_text_base_without_start(self):
        program = assemble("""
    .text
    nop
""")
        assert program.entry == program.sections[".text"].base


class TestExpressions:
    def _eval(self, text, symbols=None):
        return ExpressionEvaluator(symbols or {}).eval(text)

    @pytest.mark.parametrize("expr,value", [
        ("1 + 2 * 3", 7),
        ("(1 + 2) * 3", 9),
        ("0x10 | 0x01", 0x11),
        ("0b101 << 2", 20),
        ("~0 & 0xF", 15),
        ("-4 + 10", 6),
        ("100 / 7", 14),
        ("100 % 7", 2),
        ("1 << 4 >> 2", 4),
        ("5 ^ 3", 6),
        ("'A'", 65),
        (r"'\n'", 10),
    ])
    def test_operators(self, expr, value):
        assert self._eval(expr) == value

    def test_symbols_and_here(self):
        evaluator = ExpressionEvaluator({"base": 0x100}, here=0x40)
        assert evaluator.eval("base + 4") == 0x104
        assert evaluator.eval(". + 8") == 0x48

    def test_bad_expression(self):
        with pytest.raises(AssemblyError):
            self._eval("1 +")
        with pytest.raises(AssemblyError):
            self._eval("(1")
        with pytest.raises(AssemblyError):
            self._eval("")


class TestSplitOperands:
    def test_brackets_protect_commas(self):
        assert split_operands("r0, [r1, #4], r2") == ["r0", "[r1, #4]", "r2"]

    def test_strings_protect_commas(self):
        assert split_operands('"a,b", c') == ['"a,b"', "c"]

    def test_empty(self):
        assert split_operands("") == []


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble("""
    .text
    frobnicate r0
""")

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError, match="unknown directive"):
            assemble("""
    .text
    .bogus 4
""")

    def test_comment_styles(self):
        program = assemble("""
    .text            ; semicolon comment
_start:              @ at comment
    nop              // slash comment
""")
        assert program.text.size == 4


class TestMalformedSources:
    """Every malformed source raises AssemblyError naming its line."""

    @pytest.mark.parametrize("source,lineno", [
        (".org nowhere", 1),
        (".text\n.space nowhere", 2),
        (".align nowhere", 1),
        (".data\n.word 0123", 2),
        (".equ X, 0123", 1),
        (".data\n.word 1 / 0", 2),
        (".data\n.half 1 % 0", 2),
        (".data\n.byte 4 / (2 - 2)", 2),
        (".equ X, 1 % 0", 1),
        (".data\n.space -4", 2),
        (".data\n.space", 2),
        (".data\n.word 1 << -1", 2),
        (".data\n.word '\\'", 2),
        (".data\n.align -1", 2),
        (".text\nnop\n.org 0x8000\nnop", 4),
        (".data\n.word 1 << 0x7fffffff", 2),
        (".equ A, 1 << 4000\n.equ B, A * A", 2),
    ], ids=lambda value: repr(value) if isinstance(value, str) else None)
    def test_error_names_the_line(self, source, lineno):
        with pytest.raises(AssemblyError, match=rf"^line {lineno}: "):
            assemble(source)


class TestSurplusOperands:
    """A statement given an operand its form does not take fails; it is
    never assembled with the operand dropped."""

    @pytest.mark.parametrize("isa,source", [
        ("arm", '.data\n.asciz "hi" 123'),
        ("arm", '.data\n.ascii junk "hi"'),
        ("arm", '.data\n.ascii "hi", "there"'),
        ("arm", ".data\n.space 4, 1, 2"),
        ("arm", ".text\nnop r1"),
        ("ppc", ".text\nnop r1"),
        ("arm", ".text\nswi #0, #1"),
        ("arm", ".text\nbx r1, r2"),
        ("ppc", ".text\nli r3, 1, 2"),
        ("ppc", ".text\naddi r3, r3, 1, 9"),
        ("ppc", ".text\ncmpwi cr0, r3, 0, 1"),
    ], ids=repr)
    def test_error_names_the_line(self, isa, source):
        with pytest.raises(AssemblyError, match=r"^line 2: "):
            assemble_for(isa, source)


def test_equals_sign_in_an_address_is_a_one_word_load():
    """Only ``ldr rd, =expr`` takes the 16-byte constant-load form, in
    sizing as in encoding."""
    quoted = assemble(".text\n_start:\n    ldr r0, [r1, #'=']\n")
    assert quoted.text.data == assemble(".text\n_start:\n    ldr r0, [r1, #61]\n").text.data
    assert assemble(".text\n_start:\n    ldr r0, =61\n").text.size == 16


class TestSizeBounds:
    """Pass 1 rejects a line that would make pass 2 build a huge image."""

    @pytest.fixture()
    def no_pass2(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pass 2 reached")

        monkeypatch.setattr(Assembler, "_pass2", refuse)

    @pytest.mark.parametrize("source,lineno", [
        (".data\n.space 0x7fffffff", 2),
        (".data\n.byte 1\n.align 40", 3),
        (".text\n.org 0xfffff000\nnop", 3),
        (".text\n.org 0x100000001", 2),
        (".text\n.org 0x100000000\nnop", 3),
        (".data\n.space 0x7fffffff, 0xAB", 2),
    ])
    def test_rejected_in_pass1(self, no_pass2, source, lineno):
        with pytest.raises(AssemblyError, match=rf"^line {lineno}: "):
            assemble(source)

    def test_bound_is_inclusive(self):
        asm = Assembler(ArmSyntax())
        statements, _ = asm._pass1(f".data\n.space {MAX_SECTION_BYTES}")
        assert statements[0].size == MAX_SECTION_BYTES
        with pytest.raises(AssemblyError, match="^line 3: section .data grows past"):
            asm._pass1(f".data\n.space {MAX_SECTION_BYTES}\n.byte 1")

    def test_fleet_source_job_fails_cleanly(self, no_pass2):
        outcome = run_job({"model": "strongarm", "workload": {
            "kind": "source", "text": ".text\n_start: nop\n.space 0x7fffffff\n"}})
        assert outcome["ok"] is False
        assert outcome["error"]["type"] == "AssemblyError"
        assert outcome["error"]["message"].startswith("line 3: ")


_LEVELS = (("|",), ("^",), ("&",), ("<<", ">>"), ("+", "-"), ("*", "/", "%"))
_PRECEDENCE = {op: level + 1 for level, ops in enumerate(_LEVELS) for op in ops}
_ATOM, _UNARY = 8, 7


def _wrap(rendered, below):
    """Parenthesize *rendered* when it binds looser than *below* allows."""
    text, precedence = rendered
    return text if precedence > below else f"({text})"


def _binary(parts):
    left, op, right = parts
    precedence = _PRECEDENCE[op]
    return f"{_wrap(left, precedence - 1)} {op} {_wrap(right, precedence)}", precedence


_literals = st.builds(lambda value, form: (form(value), _ATOM),
                      st.integers(0, 300), st.sampled_from([str, hex, bin]))


def _extend(children):
    # a shift count is a small literal, so no value outgrows memory
    counts = st.integers(-2, 40).map(lambda n: (str(n), _ATOM if n >= 0 else _UNARY))
    return st.one_of(
        st.tuples(st.sampled_from("-+~"), children).map(
            lambda t: (t[0] + _wrap(t[1], _UNARY - 1), _UNARY)),
        children.map(lambda c: (f"({c[0]})", _ATOM)),
        st.tuples(children, st.sampled_from(["|", "^", "&", "+", "-", "*", "/", "%"]),
                  children).map(_binary),
        st.tuples(children, st.sampled_from(["<<", ">>"]), counts).map(_binary),
    )


_expressions = st.recursive(_literals, _extend, max_leaves=12).map(lambda r: r[0])


@settings(max_examples=300, deadline=None)
@given(_expressions)
def test_evaluator_agrees_with_python(text):
    """The assembler binds, floors and fails as Python does."""
    try:
        expected = eval(text.replace("/", "//"))
    except (ArithmeticError, ValueError):
        with pytest.raises(AssemblyError):
            ExpressionEvaluator({}).eval(text)
    else:
        assert ExpressionEvaluator({}).eval(text) == expected


def test_operator_pairs_group_as_in_python():
    """Every pair of binary operators groups as in Python: the operands
    tell the two groupings apart for all but the associative pairs."""
    for (a, b, c), first, second in itertools.product(
            [(42, 10, 3), (13, 2, 5)], _PRECEDENCE, _PRECEDENCE):
        text = f"{a} {first} {b} {second} {c}"
        try:
            expected = eval(text.replace("/", "//"))
        except (ArithmeticError, ValueError):
            with pytest.raises(AssemblyError):
                ExpressionEvaluator({}).eval(text)
        else:
            assert ExpressionEvaluator({}).eval(text) == expected, text
