"""Encoding-space audit rules: ISA001, ISA002, ISA006, ISA007.

========  ===================  =========================================
code      rule                 finds
========  ===================  =========================================
ISA001    overlapping-arms     decoder arms whose (mask, value) patterns
                               share words without declaring the overlap
ISA002    shadowed-arm         arms left empty by earlier arms under
                               decode order; arm-table/decoder mismatch
                               on sampled words (fidelity)
ISA006    emittable-udf        assembler-emittable words that decode to
                               the undefined/illegal class
ISA007    encoder-overflow     encoder calls with an out-of-range field
                               that silently produce a (mis)decodable
                               word instead of raising
========  ===================  =========================================
"""

from __future__ import annotations

from typing import Iterator, List

from ..diagnostics import AnalysisPass, Diagnostic
from .cubes import Cube, sample, subtract_all
from .engine import AUDIT_ADDR, AuditContext

#: fidelity spot-check samples per arm remainder
FIDELITY_SAMPLES = 16


class OverlapPass(AnalysisPass):
    """ISA001: two non-catch-all arms overlap without declaring it.

    An undeclared overlap means some words match both patterns and only
    decode order decides the winner — either the patterns are wrong or
    the precedence is accidental.  Declared overlaps (``overlaps_ok``)
    encode intentional carve-outs, e.g. the multiply space inside the
    ARM data-processing pattern.
    """

    code = "ISA001"
    rule = "overlapping-arms"

    def run(self, ctx: AuditContext) -> Iterator[Diagnostic]:
        from .cubes import overlaps

        arms = [arm for arm in ctx.target.arms if not arm.catch_all]
        for i, a in enumerate(arms):
            for b in arms[i + 1:]:
                if not overlaps(a.cube(), b.cube()):
                    continue
                if _overlap_ok(a, b) or _overlap_ok(b, a):
                    continue
                yield self.diag(
                    ctx,
                    f"arm {a.name!r} (mask {a.mask:#010x}, value "
                    f"{a.value:#010x}) overlaps arm {b.name!r} (mask "
                    f"{b.mask:#010x}, value {b.value:#010x}) without "
                    f"declaring it — decode order silently decides",
                    state=a.name,
                )


def _overlap_ok(a, b) -> bool:
    return "*" in a.overlaps_ok or b.name in a.overlaps_ok


class ShadowedArmPass(AnalysisPass):
    """ISA002: an arm is unreachable under decode order, or the arm
    table misdescribes the decoder.

    Decode order gives earlier arms precedence; an arm whose cube is
    fully covered by earlier cubes can never fire.  For live arms the
    pass additionally spot-checks fidelity: deterministic sample words
    from the arm's *effective* region (its cube minus all earlier arms)
    must decode to the arm's declared ``kind`` — otherwise every other
    encoding-space conclusion is built on a wrong table.
    """

    code = "ISA002"
    rule = "shadowed-arm"

    def run(self, ctx: AuditContext) -> Iterator[Diagnostic]:
        target = ctx.target
        earlier: List[Cube] = []
        for arm in target.arms:
            if arm.catch_all:
                # effective region = everything no arm claims
                remainder = subtract_all(
                    (0, 0), [a.cube() for a in target.arms if not a.catch_all])
            else:
                remainder = subtract_all(arm.cube(), earlier)
                earlier.append(arm.cube())
                if not remainder:
                    yield self.diag(
                        ctx,
                        f"arm {arm.name!r} is unreachable: every word "
                        f"matching (mask {arm.mask:#010x}, value "
                        f"{arm.value:#010x}) is claimed by an earlier arm",
                        state=arm.name,
                    )
                    continue
            for word in sample(remainder, FIDELITY_SAMPLES):
                decoded = target.decode(AUDIT_ADDR, word)
                if decoded.kind != arm.kind:
                    yield self.diag(
                        ctx,
                        f"arm table infidelity: word {word:#010x} lies in "
                        f"arm {arm.name!r}'s effective region but decodes "
                        f"to kind {decoded.kind!r} (table says "
                        f"{arm.kind!r})",
                        state=arm.name,
                        edge=f"{word:#010x}",
                    )
                    break


class EmittableUdfPass(AnalysisPass):
    """ISA006: the assembler's encoders can emit a word the decoder
    rejects as undefined/illegal — a program that assembles but cannot
    execute."""

    code = "ISA006"
    rule = "emittable-udf"

    def run(self, ctx: AuditContext) -> Iterator[Diagnostic]:
        for cls_name, runs in ctx.runs.items():
            for run in runs:
                if run.udf:
                    yield self.diag(
                        ctx,
                        f"encoder for class {cls_name!r} emits "
                        f"{run.word:#010x} at point {run.label}, which "
                        f"decodes to {run.instr.kind!r}",
                        state=cls_name,
                        edge=run.label,
                    )


class EncoderOverflowPass(AnalysisPass):
    """ISA007: an encoder accepts an out-of-range field value.

    An overflowing field bleeds into neighbouring bit fields, silently
    producing a *different* valid instruction — the worst kind of
    assembler bug.  Every registered overflow case must raise
    ``ValueError``.
    """

    code = "ISA007"
    rule = "encoder-overflow"

    def run(self, ctx: AuditContext) -> Iterator[Diagnostic]:
        for case in ctx.target.overflows:
            try:
                word = case.build()
            except ValueError:
                continue  # correctly rejected
            decoded = ctx.target.decode(AUDIT_ADDR, word & 0xFFFFFFFF)
            yield self.diag(
                ctx,
                f"overflow case {case.name!r}: encoder accepted an "
                f"out-of-range field and produced {word & 0xFFFFFFFF:#010x} "
                f"(decodes as {decoded.mnemonic!r}) instead of raising "
                f"ValueError",
                state=case.name,
            )
