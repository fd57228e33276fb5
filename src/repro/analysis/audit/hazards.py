"""Hazard-metadata audit: ISA004 (under-declared), ISA005 (over-declared).

The decoders annotate every instruction with the hazard metadata the
pipeline models schedule by: ``src_regs``/``dst_regs`` (with flag and
special-register traffic folded in as pseudo-registers), ``is_load`` /
``is_store`` and ``writes_pc``.  This pass family executes each encoding
class's field lattice against the taint-instrumented shadow state and
compares *observed* architectural traffic against the declaration:

* **ISA004 (error)** — traffic the metadata misses.  A missed write,
  memory access or control-flow redirect is a wrong simulation (the
  models forward and interlock on this metadata).  Missed *reads* are
  first confirmed differentially — the semantics may touch state
  speculatively (e.g. the ARM condition evaluator reads all four flags
  even for AL) — by perturbing the suspect register and re-running: only
  reads whose value actually influences the architectural outcome count.
* **ISA005 (warning)** — metadata never exercised anywhere on the
  lattice.  Aggregated per (class, register) across all points, so
  may-traffic (condition-failed points, conditional flag fallbacks,
  syscalls that only sometimes write the return register) does not fire
  as long as *some* audited point performs the declared access.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from ..diagnostics import AnalysisPass, Diagnostic, Severity
from .engine import AuditContext, PointRun, run_point
from .targets import AuditTarget


def _reg_name(target: AuditTarget, reg: int) -> str:
    for letter, number in target.flag_regs.items():
        if number == reg:
            return f"flags({reg})"
    for name, number in target.spr_regs.items():
        if number == reg:
            return f"{name}({reg})"
    return f"r{reg}"


def _declared(target: AuditTarget, instr) -> Tuple[Set[int], Set[int]]:
    src = set(instr.src_regs)
    dst = set(instr.dst_regs)
    if target.pc_reg is not None:
        src.discard(target.pc_reg)
        dst.discard(target.pc_reg)
    return src, dst


class UnderDeclaredPass(AnalysisPass):
    """ISA004: observed traffic the hazard metadata does not declare."""

    code = "ISA004"
    rule = "under-declared-hazard"

    def run(self, ctx: AuditContext) -> Iterator[Diagnostic]:
        target = ctx.target
        for cls in target.classes:
            reported: Set[Tuple[str, object]] = set()
            refuted: Set[int] = set()
            for run in ctx.runs[cls.name]:
                if run.udf:
                    continue
                if run.error is not None:
                    if ("exec-error", None) not in reported:
                        reported.add(("exec-error", None))
                        yield self.diag(
                            ctx,
                            f"semantics raised {type(run.error).__name__} "
                            f"for decodable {run.instr.text!r} at "
                            f"{run.label}: {run.error}",
                            state=cls.name,
                            edge=run.label,
                        )
                    continue
                instr = run.instr
                declared_src, declared_dst = _declared(target, instr)

                for reg in sorted(run.writes - declared_dst):
                    if ("write", reg) in reported:
                        continue
                    reported.add(("write", reg))
                    yield self.diag(
                        ctx,
                        f"{instr.text!r} writes {_reg_name(target, reg)} "
                        f"but dst_regs declares only "
                        f"{sorted(declared_dst)} (at {run.label})",
                        state=cls.name,
                        edge=run.label,
                    )
                for reg in sorted(run.reads - declared_src):
                    if ("read", reg) in reported or reg in refuted:
                        continue
                    if _confirm_read(target, cls, run, reg):
                        reported.add(("read", reg))
                        yield self.diag(
                            ctx,
                            f"{instr.text!r} reads {_reg_name(target, reg)} "
                            f"(architecturally observable) but src_regs "
                            f"declares only {sorted(declared_src)} "
                            f"(at {run.label})",
                            state=cls.name,
                            edge=run.label,
                        )
                    else:
                        refuted.add(reg)

                if run.state.memory.loads and not instr.is_load:
                    if ("load", None) not in reported:
                        reported.add(("load", None))
                        yield self.diag(
                            ctx,
                            f"{instr.text!r} performs memory loads but is "
                            f"not declared is_load (at {run.label})",
                            state=cls.name,
                            edge=run.label,
                        )
                if run.state.memory.stores and not instr.is_store:
                    if ("store", None) not in reported:
                        reported.add(("store", None))
                        yield self.diag(
                            ctx,
                            f"{instr.text!r} performs memory stores but is "
                            f"not declared is_store (at {run.label})",
                            state=cls.name,
                            edge=run.label,
                        )
                if run.redirected and not instr.writes_pc:
                    if ("redirect", None) not in reported:
                        reported.add(("redirect", None))
                        yield self.diag(
                            ctx,
                            f"{instr.text!r} redirects control flow to "
                            f"{run.info.next_pc:#x} but is not declared "
                            f"writes_pc (at {run.label})",
                            state=cls.name,
                            edge=run.label,
                        )
                if instr.unit not in target.units:
                    if ("unit", instr.unit) not in reported:
                        reported.add(("unit", instr.unit))
                        yield self.diag(
                            ctx,
                            f"{instr.text!r} declares unit "
                            f"{instr.unit!r}, outside the ISA's unit "
                            f"vocabulary {sorted(target.units)}",
                            state=cls.name,
                            edge=run.label,
                        )

    # Note: refuted reads are cached per class.  A register refuted at one
    # point could in principle be influential at another, but re-probing
    # every point costs a full lattice re-execution per register for a
    # case the two-stage design already treats as speculative; the
    # property round-trip tests cover the residue.


#: snapshot tuple slot of each flag letter / special register (see
#: :func:`repro.analysis.audit.engine._snapshot`)
_FLAG_SLOT = {"n": 1, "z": 2, "c": 3, "v": 4}
_SPR_SLOT = {"lr": 5, "ctr": 6}


def _confirm_read(target: AuditTarget, cls, base: PointRun, reg: int) -> bool:
    """Differential confirmation: does perturbing *reg* change the
    architectural outcome of this point?

    The perturbed location's own snapshot slot is masked out of the
    comparison — an untouched register trivially still holds the
    perturbed value afterwards, which is not a dependence.  A dependence
    observable *only* through that same register implies an undeclared
    write of it, which the write check reports separately.
    """
    tweaks = []
    for letter, number in target.flag_regs.items():
        if number == reg and letter in base.state.flag_reads:
            tweaks.append((_flip_flag(letter), _mask_slot(_FLAG_SLOT[letter])))
    for name, number in target.spr_regs.items():
        if number == reg and name in base.state.spr_reads:
            tweaks.append((_perturb_spr(name), _mask_slot(_SPR_SLOT[name])))
    if not tweaks and reg < len(base.state.regs.values):
        tweaks.append((_perturb_reg(reg), _mask_reg(reg)))
    for tweak, mask in tweaks:
        perturbed = run_point(target, cls, base.point, tweak=tweak)
        if mask(perturbed.snapshot) != mask(base.snapshot):
            return True
    return False


def _mask_slot(index: int):
    def mask(snapshot):
        return snapshot[:index] + (None,) + snapshot[index + 1:]

    return mask


def _mask_reg(reg: int):
    def mask(snapshot):
        regs = snapshot[0]
        return (regs[:reg] + (None,) + regs[reg + 1:],) + snapshot[1:]

    return mask


def _flip_flag(letter: str):
    attr = "_flag_" + letter

    def tweak(state):
        setattr(state, attr, 1 - getattr(state, attr))

    return tweak


def _perturb_spr(name: str):
    attr = "_spr_" + name

    def tweak(state):
        # keep word alignment: redirect targets are masked with ~3
        setattr(state, attr, getattr(state, attr) ^ 0x100)

    return tweak


def _perturb_reg(reg: int):
    def tweak(state):
        # aligned delta so address masking cannot hide the change
        state.regs.values[reg] ^= 0x2E0

    return tweak


class OverDeclaredPass(AnalysisPass):
    """ISA005: declared hazard metadata never exercised on the lattice.

    Over-declaration is not a correctness bug for the simulated program,
    but it serializes the pipeline on phantom dependences — and usually
    indicates the declaration was written for a different semantics than
    the one implemented.  Warning severity; aggregated per class so
    conditional may-traffic does not fire.
    """

    code = "ISA005"
    rule = "over-declared-hazard"

    def run(self, ctx: AuditContext) -> Iterator[Diagnostic]:
        target = ctx.target
        for cls in target.classes:
            runs = [r for r in ctx.runs[cls.name]
                    if not r.udf and r.error is None]
            if not runs:
                continue
            src_declared: Dict[int, int] = {}
            src_hit: Dict[int, int] = {}
            dst_declared: Dict[int, int] = {}
            dst_hit: Dict[int, int] = {}
            flags = {"load": [0, 0], "store": [0, 0], "redirect": [0, 0]}
            for run in runs:
                declared_src, declared_dst = _declared(target, run.instr)
                for reg in declared_src:
                    src_declared[reg] = src_declared.get(reg, 0) + 1
                    if reg in run.reads:
                        src_hit[reg] = src_hit.get(reg, 0) + 1
                for reg in declared_dst:
                    dst_declared[reg] = dst_declared.get(reg, 0) + 1
                    if reg in run.writes:
                        dst_hit[reg] = dst_hit.get(reg, 0) + 1
                if run.instr.is_load:
                    flags["load"][0] += 1
                    flags["load"][1] += bool(run.state.memory.loads)
                if run.instr.is_store:
                    flags["store"][0] += 1
                    flags["store"][1] += bool(run.state.memory.stores)
                if run.instr.writes_pc:
                    flags["redirect"][0] += 1
                    flags["redirect"][1] += run.redirected
            for reg in sorted(src_declared):
                if not src_hit.get(reg):
                    yield self.diag(
                        ctx,
                        f"src_regs declares {_reg_name(target, reg)} at "
                        f"{src_declared[reg]} audited point(s) but it is "
                        f"never read — phantom RAW dependence",
                        severity=Severity.WARNING,
                        state=cls.name,
                    )
            for reg in sorted(dst_declared):
                if not dst_hit.get(reg):
                    yield self.diag(
                        ctx,
                        f"dst_regs declares {_reg_name(target, reg)} at "
                        f"{dst_declared[reg]} audited point(s) but it is "
                        f"never written — phantom WAW/WAR dependence",
                        severity=Severity.WARNING,
                        state=cls.name,
                    )
            descriptions = {
                "load": "is_load is declared but no point ever loads",
                "store": "is_store is declared but no point ever stores",
                "redirect": "writes_pc is declared but no point ever "
                            "redirects control flow",
            }
            for key, (declared, hit) in flags.items():
                if declared and not hit:
                    yield self.diag(
                        ctx,
                        f"{descriptions[key]} ({declared} point(s))",
                        severity=Severity.WARNING,
                        state=cls.name,
                    )
