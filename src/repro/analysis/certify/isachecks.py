"""Per-ISA transcheck helpers: execgen write-sets, block store guards,
page-map coverage (rules TRV004–TRV006).

The spec-side rules replay generated OSM code against the primitive
plan; the ISA-side rules validate the *other* two generators — the
per-instruction executor closures (``execgen``) and the whole-block ISS
translations (:mod:`repro.iss.compiled`) — against their references:

* TRV004 compares the **static may-write set** extracted from a
  generated executor's source against the traffic the reference
  semantics actually produced for the same instruction (the isaaudit
  shadow-state runs).  Soundness direction: observed ⊆ static — the
  generated code must account for every architectural write the
  reference performs; extra static writes are fine (a may-set).
* TRV005 checks that every memory store in a compiled ARM block is
  followed by the ``if not _b.valid:`` self-modification guard before
  any later instruction's memory access or control flow.
* TRV006 checks the decode cache's page index: every live block must be
  registered under every page its address range spans, else a store to
  a middle page would miss the invalidation.

TRV005/TRV006 need *artifacts*, so the ISA context runs a small driver
program under the compiling ISS and inspects the decode cache it leaves
behind.  The drivers exercise plain stores, conditional stores, a block
store (``stm``) and a straight-line run long enough to span a decode
page (256 bytes).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

__all__ = [
    "StaticWrites",
    "check_page_map",
    "check_store_guards",
    "run_arm_driver",
    "run_ppc_driver",
    "static_writes",
]


# -- TRV004: static write-set extraction ------------------------------------

class StaticWrites:
    """The may-write set of one generated executor."""

    __slots__ = ("regs", "flags", "sprs", "mem", "syscall")

    def __init__(self):
        self.regs: Set[int] = set()
        self.flags: Set[str] = set()   # 'n' / 'z' / 'c' / 'v'
        self.sprs: Set[str] = set()    # 'lr' / 'ctr'
        self.mem = False
        self.syscall = False


def static_writes(source: str) -> StaticWrites:
    """Extract the architectural may-write set from executor *source*.

    The execgen emitters write architectural state through a fixed
    vocabulary — ``r[<literal>] = …``, ``state.flag_<x> = …``,
    ``state.lr/ctr = …``, ``<obj>.write_<unit>(…)`` and
    ``state.syscalls.handle(…)`` — so a syntactic walk is exact.
    Writes to ``state.pc``, ``info.*`` and local temporaries are not
    architectural traffic and are ignored (the audit harness carves PC
    out of hazard comparison too).
    """
    out = StaticWrites()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                _classify_write(target, out)
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute):
                if fn.attr.startswith("write_"):
                    out.mem = True
                elif fn.attr == "handle" and isinstance(fn.value, ast.Attribute) \
                        and fn.value.attr == "syscalls":
                    out.syscall = True
    return out


def _classify_write(target: ast.AST, out: StaticWrites) -> None:
    if isinstance(target, ast.Subscript):
        base = target.value
        if isinstance(base, ast.Name) and base.id == "r":
            try:
                index = ast.literal_eval(target.slice)
            except (ValueError, TypeError, SyntaxError):
                index = None
            if isinstance(index, int):
                out.regs.add(index)
            else:
                # non-literal register index: widen to "any register"
                out.regs.add(-1)
    elif isinstance(target, ast.Attribute):
        base = target.value
        if isinstance(base, ast.Name) and base.id == "state":
            attr = target.attr
            if attr.startswith("flag_"):
                out.flags.add(attr[len("flag_"):])
            elif attr in ("lr", "ctr"):
                out.sprs.add(attr)
    elif isinstance(target, ast.Tuple):
        for element in target.elts:
            _classify_write(element, out)


# -- TRV005: store guards in compiled ARM blocks ----------------------------

def _contains_store(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr.startswith("write_"):
            return True
    return False


def _contains_mem_read(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr.startswith("read_"):
            return True
    return False


def _is_valid_guard(stmt: ast.AST) -> bool:
    """``if not _b.valid:`` with a body ending in an early return."""
    if not isinstance(stmt, ast.If) or stmt.orelse:
        return False
    test = stmt.test
    if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)):
        return False
    inner = test.operand
    if not (isinstance(inner, ast.Attribute) and inner.attr == "valid"
            and isinstance(inner.value, ast.Name) and inner.value.id == "_b"):
        return False
    return bool(stmt.body) and isinstance(stmt.body[-1], ast.Return)


def _guard_problems(suite: List[ast.stmt], trailer: List[ast.stmt],
                    problems: List[str]) -> None:
    """Check *suite* (with the enclosing statements *trailer* following
    it) for the store→guard contract; recurse into nested suites."""
    for position, stmt in enumerate(suite):
        if isinstance(stmt, ast.If) and not _is_valid_guard(stmt):
            # a conditional instruction body: its guard, if any, sits
            # after the If at this level
            rest = suite[position + 1:] + trailer
            _guard_problems(stmt.body, rest, problems)
            _guard_problems(stmt.orelse, rest, problems)
            continue
        if not _contains_store(stmt) or _is_valid_guard(stmt):
            continue
        chain = suite[position + 1:] + trailer
        found = False
        for follower in chain:
            if _is_valid_guard(follower):
                found = True
                break
            if isinstance(follower, (ast.If, ast.For, ast.While, ast.Return)):
                problems.append(
                    "store not followed by a _b.valid guard before "
                    f"control flow ({ast.unparse(follower.test) if isinstance(follower, (ast.If, ast.While)) else type(follower).__name__})"
                )
                found = True
                break
            if _contains_mem_read(follower):
                problems.append(
                    "store not followed by a _b.valid guard before a "
                    "later memory access")
                found = True
                break
        if not found:
            problems.append("store without a trailing _b.valid guard")


def check_store_guards(source: str) -> List[str]:
    """TRV005 problems in one compiled ARM block's source, or []."""
    tree = ast.parse(source)
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        return ["block source is not a single function definition"]
    problems: List[str] = []
    _guard_problems(tree.body[0].body, [], problems)
    return problems


# -- TRV006: page-map coverage ----------------------------------------------

def check_page_map(decode_cache) -> List[str]:
    """Every live block must be indexed under every page it spans."""
    from ...iss.decode_cache import PAGE_SHIFT

    problems: List[str] = []
    pages = decode_cache._block_pages
    for entry, block in sorted(decode_cache.blocks.items()):
        for page in range(entry >> PAGE_SHIFT,
                          ((block.end - 1) >> PAGE_SHIFT) + 1):
            if block not in pages.get(page, ()):
                problems.append(
                    f"block {entry:#x}..{block.end:#x} missing from page "
                    f"index entry {page:#x}")
    return problems


# -- ISS drivers -------------------------------------------------------------

#: straight-line padding long enough to cross a 256-byte decode page
_ARM_PAD = "\n".join("    add r6, r6, #1" for _ in range(70))

_ARM_DRIVER = f"""
    .text
_start:
    mov r6, #0
    b body
body:
{_ARM_PAD}
    li r1, buffer
    mov r2, #7
    str r2, [r1]
    strb r2, [r1, #4]
    cmp r2, #7
    streq r2, [r1, #8]
    strne r2, [r1, #12]
    mov r3, #1
    mov r4, #2
    stmia r1, {{r3, r4}}
    ldr r5, [r1]
    mov r0, #0
    swi #0
    .data
buffer:
    .word 0, 0, 0, 0
"""

_PPC_PAD = "\n".join("    addi r6, r6, 1" for _ in range(70))

_PPC_DRIVER = f"""
    .text
_start:
    li r6, 0
    b body
body:
{_PPC_PAD}
    li32 r9, buffer
    li r10, 7
    stw r10, 0(r9)
    stb r10, 4(r9)
    lwz r11, 0(r9)
    li r0, 0
    li r3, 0
    sc
    .data
buffer:
    .word 0, 0
"""


def run_arm_driver():
    """Run the ARM driver under the compiling ISS; returns the
    interpreter with its populated decode cache and compiled blocks."""
    from ...isa.arm import assemble
    from ...iss import CompiledArmInterpreter

    interpreter = CompiledArmInterpreter(assemble(_ARM_DRIVER))
    interpreter.run()
    return interpreter


def run_ppc_driver():
    """Run the PPC driver under the specialised interpreter, whose
    block-at-a-time loop fills the decode cache's block layer."""
    from ...isa.ppc import assemble
    from ...iss import PpcInterpreter

    interpreter = PpcInterpreter(assemble(_PPC_DRIVER))
    interpreter.run()
    return interpreter
