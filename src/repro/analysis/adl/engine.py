"""adlcheck engine: shared context, span-mapped pass base, drivers.

An ADL rule is an :class:`AdlPass` (``ADL001``…) over one parsed
:class:`~repro.adl.ast.ProcessorDecl`, run by the shared analysis
driver.  Passes share an :class:`AdlContext` that precomputes the facts
most rules need (manager maps, per-machine state sets, stable edge
qualnames) and converts declaration line numbers into
:class:`~repro.analysis.diagnostics.SourceSpan` provenance, so every
finding points at the ADL line the author wrote.

A finding anchored to an edge whose ``allow`` clause names the rule
code — or a description whose processor-level ``allow`` names it — is
kept in the report but marked ``suppressed`` and excluded from the
pass/fail verdict.

The drivers:

* :func:`adlcheck_processor` — analyze an already-parsed AST;
* :func:`adlcheck_source` — parse (syntax only) and analyze; a syntax
  error becomes a single located ``ADL000`` finding instead of an
  exception, so broken files still produce a report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ...adl.ast import EdgeDecl, ProcessorDecl
from ...adl.parser import AdlError, parse
from ..diagnostics import (AnalysisPass, Diagnostic, Report, Severity,
                           SourceSpan, allow_lookup, run_passes)


class AdlContext:
    """Per-run shared facts over one parsed processor description."""

    def __init__(self, processor: ProcessorDecl, unit: Optional[str] = None):
        self.processor = processor
        #: name diagnostics are keyed by (file path or processor name)
        self.unit = self.subject = unit or processor.name
        self.manager_names = {m.name for m in processor.managers}
        self.managers = {m.name: m for m in processor.managers}
        #: machine name -> declared state-name set
        self.state_names: Dict[str, set] = {
            m.name: {s.name for s in m.states} for m in processor.machines
        }
        #: id(edge) -> stable ``src->dst@index`` qualname (index within
        #: the machine's declaration order — matches the qualnames of the
        #: spec edges the synthesiser builds, so edge-level suppressions
        #: apply to remapped synth-closure findings too)
        self._qualnames: Dict[int, str] = {}
        #: qualname -> allow codes for suppression resolution
        self.edge_allow: Dict[str, List[str]] = {}
        for machine in processor.machines:
            for index, edge in enumerate(machine.edges):
                qualname = f"{edge.src}->{edge.dst}@{index}"
                self._qualnames[id(edge)] = qualname
                self.edge_allow[qualname] = list(edge.allow)

    def qualname(self, edge: EdgeDecl) -> str:
        return self._qualnames[id(edge)]

    def span(self, lineno: Optional[int]) -> Optional[SourceSpan]:
        if lineno is None:
            return None
        return SourceSpan(self.unit, lineno)


class AdlPass(AnalysisPass):
    """Base class of the adlcheck rules: findings anchor to AST edges
    and carry the ADL source line of their declaration."""

    def diag(
        self,
        ctx: AdlContext,
        message: str,
        severity: Severity = Severity.ERROR,
        state: Optional[str] = None,
        edge: Optional[EdgeDecl] = None,
        lineno: Optional[int] = None,
    ) -> Diagnostic:
        """Build a finding located in *ctx*'s description; an edge
        anchor implies its source-state location unless overridden."""
        if edge is not None and state is None:
            state = edge.src
        if lineno is None and edge is not None:
            lineno = edge.lineno
        return Diagnostic(
            code=self.code,
            rule=self.rule,
            severity=severity,
            spec=ctx.unit,
            message=message,
            state=state,
            edge=ctx.qualname(edge) if edge is not None else None,
            source_span=ctx.span(lineno),
        )


def default_passes(synth_closure: bool = True) -> List[AdlPass]:
    """Fresh instances of the bundled rules, in code order."""
    from .closure import SynthClosurePass
    from .passes import (
        CapacityPass,
        DanglingEdgePass,
        DuplicateDeclarationPass,
        EdgePriorityPass,
        IdentifierPass,
        InitialStatePass,
        TokenBalancePass,
        UndefinedReferencePass,
        UnusedDeclarationPass,
    )

    passes: List[AdlPass] = [
        UndefinedReferencePass(),
        DuplicateDeclarationPass(),
        DanglingEdgePass(),
        InitialStatePass(),
        IdentifierPass(),
        CapacityPass(),
        TokenBalancePass(),
        EdgePriorityPass(),
        UnusedDeclarationPass(),
    ]
    if synth_closure:
        passes.append(SynthClosurePass())
    return passes


#: rule code reserved for parse failures (reported, never run as a pass)
SYNTAX_CODE = "ADL000"


def adlcheck_processor(
    processor: ProcessorDecl,
    unit: Optional[str] = None,
    passes: Optional[Sequence[AdlPass]] = None,
    codes: Optional[Iterable[str]] = None,
    synth_closure: bool = True,
) -> Report:
    """Run the description-level rules over a parsed AST.

    Parameters
    ----------
    passes:
        Pass instances to run; defaults to the bundled ADL001–ADL010 set.
    codes:
        When given, restrict the default set to these rule codes.
    synth_closure:
        Include the ADL010 synthesis-closure pass (synthesizes the
        description and folds span-remapped downstream findings in).
        Ignored when explicit *passes* are given.
    """
    if passes is None:
        passes = default_passes(synth_closure=synth_closure)
    ctx = AdlContext(processor, unit=unit)
    return run_passes("adlcheck", ctx, passes, codes,
                      allow_lookup(processor.allow, ctx.edge_allow))


def adlcheck_source(
    text: str,
    unit: Optional[str] = None,
    passes: Optional[Sequence[AdlPass]] = None,
    codes: Optional[Iterable[str]] = None,
    synth_closure: bool = True,
) -> Report:
    """Parse *text* (syntax only) and run the description-level rules.

    A syntax error does not raise: the report carries one located
    ``ADL000`` finding so CLI and CI consumers always get the shared
    schema back.
    """
    try:
        processor = parse(text, validate=False)
    except AdlError as exc:
        report = Report(spec=unit or "<adl>", tool="adlcheck")
        report.diagnostics.append(
            Diagnostic(
                code=SYNTAX_CODE,
                rule="syntax",
                severity=Severity.ERROR,
                spec=unit or "<adl>",
                message=str(exc),
                source_span=(
                    SourceSpan(unit or "<adl>", exc.lineno)
                    if exc.lineno is not None
                    else None
                ),
            )
        )
        return report
    return adlcheck_processor(
        processor,
        unit=unit,
        passes=passes,
        codes=codes,
        synth_closure=synth_closure,
    )
