"""Round-trip verification: ISA003 (rule ``roundtrip``).

For every lattice point of every encoding class: encode the fields to a
word, decode it, and re-encode the *decoded* instruction through the
class's ``reencode`` hook.  The result must be the original word — a
fixpoint.  A mismatch means encoder and decoder disagree about a field's
position, width or sign convention, which corrupts every program silently
(the decode cache hides it: the simulated program still runs, just not
the program the assembler was asked for).
"""

from __future__ import annotations

from typing import Iterator

from ..diagnostics import AnalysisPass, Diagnostic
from .engine import AuditContext


class RoundTripPass(AnalysisPass):
    """ISA003: encode -> decode -> re-encode must be a fixpoint."""

    code = "ISA003"
    rule = "roundtrip"

    def run(self, ctx: AuditContext) -> Iterator[Diagnostic]:
        for cls in ctx.target.classes:
            if cls.reencode is None:
                continue
            for run in ctx.runs[cls.name]:
                if run.udf:
                    continue  # ISA006's finding; nothing to round-trip
                try:
                    word = cls.reencode(run.instr) & 0xFFFFFFFF
                except ValueError as error:
                    yield self.diag(
                        ctx,
                        f"decoded {run.instr.text!r} ({run.word:#010x}) "
                        f"does not re-encode: {error}",
                        state=cls.name,
                        edge=run.label,
                    )
                    continue
                if word != run.word:
                    yield self.diag(
                        ctx,
                        f"round-trip fixpoint broken at {run.label}: "
                        f"{run.word:#010x} decodes to {run.instr.text!r} "
                        f"which re-encodes to {word:#010x}",
                        state=cls.name,
                        edge=run.label,
                    )
