"""Golden snapshots of generated fast-path code.

transcheck (``repro certify``) validates generated code *semantically* —
by symbolic replay against the reference plan.  These tests pin the
other axis: the exact *shape* of the generated artifacts, so an
unintended generator change is visible as a reviewable diff even when
it happens to stay semantics-preserving.

Sources are normalized through :func:`repro.analysis.certify.astnorm.
normalize_source` (parse + unparse) before comparison, so formatting
details of the code writers never count as drift.  To regenerate after
an intentional generator change::

    UPDATE_SNAPSHOTS=1 python -m pytest tests/analysis/test_codegen_snapshots.py

and review the snapshot diff alongside the generator change.
"""

import difflib
import os
from pathlib import Path

import pytest

from repro.analysis.certify.astnorm import normalize_source
from repro.analysis.registry import build_spec

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"

#: the pipeline5 states whose fused steppers are pinned (all of them —
#: the model fuses every state)
PIPELINE5_STATES = ("I", "F", "D", "E", "B", "W")

#: the ppc750 states whose steppers test keyed guards inline: dispatch
#: (Q) routes on the unit class, issue (R) on the reservation station
PPC750_STATES = ("Q", "R")

#: the ppc750 states with a wake test: dispatch (Q) parks at the
#: fetch-queue release, execution (X) at the unit release, retirement
#: (W) at the completion-queue release
PPC750_WAKE_STATES = ("Q", "W", "X")


def _assert_matches_snapshot(name: str, source: str) -> None:
    normalized = normalize_source(source) + "\n"
    path = SNAPSHOT_DIR / name
    if os.environ.get("UPDATE_SNAPSHOTS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(normalized)
        return
    assert path.exists(), (
        f"missing snapshot {name}; generate it with "
        f"UPDATE_SNAPSHOTS=1 python -m pytest {__file__}"
    )
    expected = path.read_text()
    if normalized != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), normalized.splitlines(),
            fromfile=f"snapshots/{name}", tofile="generated", lineterm=""))
        pytest.fail(
            f"generated code drifted from snapshot {name} — review the "
            f"generator change (or UPDATE_SNAPSHOTS=1 if intended):\n{diff}")


@pytest.fixture(scope="module")
def pipeline5_spec():
    return build_spec("pipeline5")


@pytest.mark.parametrize("state_name", PIPELINE5_STATES)
def test_pipeline5_fused_stepper_snapshot(pipeline5_spec, state_name):
    state = pipeline5_spec.states[state_name]
    assert state._fused is not None, f"{state_name}: expected a fused stepper"
    _assert_matches_snapshot(
        f"pipeline5_{state_name}_stepper.py",
        state._fused.__fused_source__)


@pytest.fixture(scope="module")
def ppc750_spec():
    return build_spec("ppc750")


@pytest.mark.parametrize("state_name", PPC750_STATES)
def test_ppc750_fused_stepper_snapshot(ppc750_spec, state_name):
    state = ppc750_spec.states[state_name]
    assert state._fused is not None, f"{state_name}: expected a fused stepper"
    _assert_matches_snapshot(
        f"ppc750_{state_name}_stepper.py",
        state._fused.__fused_source__)


@pytest.mark.parametrize("state_name", PPC750_WAKE_STATES)
def test_ppc750_wake_test_snapshot(ppc750_spec, state_name):
    state = ppc750_spec.states[state_name]
    assert state._wake is not None, f"{state_name}: expected a wake test"
    _assert_matches_snapshot(
        f"ppc750_{state_name}_wake.py", state._wake.__fused_source__)


def test_ppc750_parks_exactly_the_wake_states(ppc750_spec):
    parked = [name for name, state in ppc750_spec.states.items()
              if state._wake is not None]
    assert sorted(parked) == sorted(PPC750_WAKE_STATES)


def test_arm_execgen_adds_snapshot():
    """One representative execgen closure: a flag-setting ALU op covers
    the register write, the four flag writes and the PC advance."""
    from repro.isa.arm import assemble, decode
    from repro.isa.arm.execgen import _translate

    program = assemble("""
    .text
_start:
    adds r1, r2, r3
    swi #0
""")
    addr, word = program.text_words()[0]
    source = _translate(decode(addr, word), "_exec")
    assert source is not None
    _assert_matches_snapshot("arm_adds_executor.py", source)


#: per ISA, a loop whose body is one block that loads, stores (with its
#: guard), sets the flags or CR0 by a compare and branches back to its
#: own entry
BLOCK_LOOPS = {
    "arm": """
    .text
_start:
    li   r2, buf
    mov  r4, #3
loop:
    ldr  r1, [r2]
    add  r1, r1, r4, lsl #2
    str  r1, [r2]
    sub  r4, r4, #1
    cmp  r4, #0
    bne  loop
    mov  r0, #0
    swi  #0
    .data
buf: .word 0
""",
    "ppc": """
    .text
_start:
    li32  r4, buf
    li    r5, 3
loop:
    lwz   r6, 0(r4)
    add   r6, r6, r5
    stw   r6, 0(r4)
    addi  r5, r5, -1
    cmpwi r5, 0
    bne   loop
    li    r0, 0
    sc
    .data
buf: .word 0
""",
}


@pytest.mark.parametrize("isa", sorted(BLOCK_LOOPS))
def test_loop_block_function_snapshot(isa):
    """The block function ``run()`` executes for the loop body, which
    loops in place: flags or CR0 in locals, operands and the word load
    inline, a guard after the store, instret counted in ``_i``, and a
    ``while True:`` left when the branch falls through or another
    iteration would pass the instret limit."""
    from repro.isa.arm import assemble as asm_arm
    from repro.isa.ppc import assemble as asm_ppc
    from repro.iss import ArmInterpreter, PpcInterpreter

    iss_class, assemble = ((ArmInterpreter, asm_arm) if isa == "arm"
                           else (PpcInterpreter, asm_ppc))
    program = assemble(BLOCK_LOOPS[isa])
    iss = iss_class(program)
    iss.run()
    block = iss.decode_cache.blocks[program.symbols["loop"]]
    _assert_matches_snapshot(f"{isa}_loop_block.py",
                             block.compiled.__block_source__)


def test_snapshots_contain_no_stale_files():
    """Every committed snapshot is exercised by a test above — a renamed
    state or instruction must not leave orphans behind."""
    expected = {f"pipeline5_{name}_stepper.py" for name in PIPELINE5_STATES}
    expected |= {f"ppc750_{name}_stepper.py" for name in PPC750_STATES}
    expected |= {f"ppc750_{name}_wake.py" for name in PPC750_WAKE_STATES}
    expected |= {f"{isa}_loop_block.py" for isa in BLOCK_LOOPS}
    expected.add("arm_adds_executor.py")
    actual = {p.name for p in SNAPSHOT_DIR.glob("*.py")}
    assert actual == expected
