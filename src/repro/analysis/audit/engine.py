"""Audit engine: shared lattice harness, pass list, driver.

An audit rule is an :class:`~repro.analysis.diagnostics.AnalysisPass`
(``ISA001``…) over an :class:`~.targets.AuditTarget` (one ISA) instead
of a MachineSpec.  Passes share an :class:`AuditContext` that lazily
executes every encoding class's field lattice once against the
taint-instrumented :class:`~repro.iss.state.ShadowArchState`, so the
round-trip, hazard and udf-reachability passes all consume the same
per-point records.  A finding's ``state`` slot carries the arm or class
name, its ``edge`` slot the lattice point.

Suppression is allow-style, like lint: a rule code in ``target.allow``
suppresses target-wide; a code in an arm's or class's ``allow`` set
suppresses diagnostics anchored to that arm/class.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..diagnostics import AnalysisPass, Report, allow_lookup, run_passes
from .targets import AuditTarget, EncodingClass

#: address every audited instruction executes at
AUDIT_ADDR = 0x1000


class PointRun:
    """Outcome of executing one encoding-class lattice point."""

    __slots__ = ("cls", "point", "word", "instr", "udf", "state", "info",
                 "error", "snapshot", "reads", "writes")

    def __init__(self, cls, point, word, instr):
        self.cls = cls
        self.point = point
        self.word = word
        self.instr = instr
        self.udf = False
        self.state = None
        self.info = None
        self.error: Optional[BaseException] = None
        self.snapshot: Optional[Tuple] = None
        #: hazard-register traffic mapped through flag/spr pseudo-registers
        self.reads: frozenset = frozenset()
        self.writes: frozenset = frozenset()

    @property
    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.point.items())
        return f"{self.cls.name}({inner})"

    @property
    def redirected(self) -> bool:
        return self.info is not None and self.info.next_pc != AUDIT_ADDR + 4


def seed_state(state) -> None:
    """Deterministic register/flag/SPR seeding for audit runs.

    Register i holds ``0x200 + 8*i`` — distinct, word-aligned, and small
    enough that loads/stores land in unmapped memory (which reads as 0).
    Z is seeded 1 so EQ-conditioned instructions execute; CTR is nonzero
    so decrementing branches are observable.
    """
    for i in range(len(state.regs.values)):
        state.regs.values[i] = (0x200 + 8 * i) & 0xFFFFFFFF
    state._flag_n = 0
    state._flag_z = 1
    state._flag_c = 0
    state._flag_v = 0
    state._spr_lr = 0x40
    state._spr_ctr = 2


def run_point(target: AuditTarget, cls: EncodingClass, point: Dict,
              tweak=None) -> PointRun:
    """Encode, decode and execute one lattice point on a fresh shadow
    state; *tweak* (state -> None) perturbs the seeded state first."""
    word = cls.encode(point) & 0xFFFFFFFF
    instr = target.decode(AUDIT_ADDR, word)
    run = PointRun(cls, point, word, instr)
    if instr.kind in target.udf_kinds:
        run.udf = True
        return run
    state = target.make_state()
    seed_state(state)
    if cls.setup is not None:
        cls.setup(state, point)
    if tweak is not None:
        tweak(state)
    state.pc = AUDIT_ADDR
    state.clear_traffic()
    try:
        run.info = target.execute(state, instr)
    except Exception as error:  # semantics reject: captured, compared
        run.error = error
    run.state = state
    run.snapshot = _snapshot(state, run.info, run.error)
    run.reads, run.writes = _traffic(target, state)
    return run


def _snapshot(state, info, error) -> Tuple:
    """Everything architecturally observable after one instruction."""
    return (
        tuple(state.regs.values),
        state._flag_n, state._flag_z, state._flag_c, state._flag_v,
        state._spr_lr, state._spr_ctr,
        tuple(state.memory.loads),
        tuple(state.memory.stores),
        info.next_pc if info is not None else None,
        state.halted,
        state.exit_code,
        bytes(state.syscalls.output) if state.syscalls is not None else b"",
        type(error).__name__ if error is not None else None,
    )


def _traffic(target: AuditTarget, state) -> Tuple[frozenset, frozenset]:
    """Observed traffic as hazard register numbers (PC carved out)."""
    reads = set(state.regs.reads)
    writes = set(state.regs.writes)
    for letter in state.flag_reads:
        if letter in target.flag_regs:
            reads.add(target.flag_regs[letter])
    for letter in state.flag_writes:
        if letter in target.flag_regs:
            writes.add(target.flag_regs[letter])
    for name in state.spr_reads:
        if name in target.spr_regs:
            reads.add(target.spr_regs[name])
    for name in state.spr_writes:
        if name in target.spr_regs:
            writes.add(target.spr_regs[name])
    if target.pc_reg is not None:
        reads.discard(target.pc_reg)
        writes.discard(target.pc_reg)
    return frozenset(reads), frozenset(writes)


class AuditContext:
    """Per-run shared facts: the executed lattices, computed once."""

    def __init__(self, target: AuditTarget):
        self.target = target
        self.subject = target.name
        self._runs: Optional[Dict[str, List[PointRun]]] = None

    @property
    def runs(self) -> Dict[str, List[PointRun]]:
        if self._runs is None:
            self._runs = {
                cls.name: [run_point(self.target, cls, point)
                           for point in cls.points()]
                for cls in self.target.classes
            }
        return self._runs


def default_passes() -> List[AnalysisPass]:
    """Fresh instances of the per-ISA rules ISA001–ISA007, in code order
    (ISA008 runs per model spec, see :mod:`.routing`)."""
    from .encoding import EmittableUdfPass, EncoderOverflowPass, OverlapPass, ShadowedArmPass
    from .hazards import OverDeclaredPass, UnderDeclaredPass
    from .roundtrip import RoundTripPass

    return [
        OverlapPass(),
        ShadowedArmPass(),
        RoundTripPass(),
        UnderDeclaredPass(),
        OverDeclaredPass(),
        EmittableUdfPass(),
        EncoderOverflowPass(),
    ]


def audit_target(
    target: AuditTarget,
    passes: Optional[Sequence[AnalysisPass]] = None,
    codes: Optional[Iterable[str]] = None,
) -> Report:
    """Run the audit passes over *target* and return the report."""
    if passes is None:
        passes = default_passes()
    anchor_allow = {arm.name: arm.allow for arm in target.arms}
    anchor_allow.update({cls.name: cls.allow for cls in target.classes})
    anchor_allow.update({case.name: case.allow for case in target.overflows})
    return run_passes("audit", AuditContext(target), passes, codes,
                      allow_lookup(target.allow, anchor_allow, slot="state"))
