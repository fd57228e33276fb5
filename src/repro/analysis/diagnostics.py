"""Diagnostics machinery shared by every analysis front end.

A :class:`Diagnostic` is one finding: a stable rule code (``OSM001``…,
``CHK001``…, ``ISA001``…), a severity, a location (for OSM-layer tools a
``spec:state:edge`` triple; for the ISA auditor a ``target:class:arm``
triple reusing the same slots) and a human-readable message.  A
:class:`Report` aggregates the findings of one run of one tool over one
analysis subject and renders them as text (one finding per line,
compiler style) or JSON (for CI and tooling).

Every tool — ``repro lint`` (osmlint), ``repro check`` (osmcheck),
``repro audit`` (isaaudit), ``repro effects`` (effectcheck),
``repro certify`` (transcheck) and ``repro adlcheck`` — emits this one
JSON schema.  Reports carry a ``tool`` name and a ``schema_version`` so
downstream consumers can dispatch without sniffing rule-code prefixes.

A finding over a *generated* artifact (a spec synthesized from an ADL
description) may additionally carry a :class:`SourceSpan` — the source
unit and line of the declaration it maps back to — rendered as a
``description.adl:12`` style suffix and serialized under
``source_span``.  Hand-written subjects leave it ``None``.

Every rule of every tool is an :class:`AnalysisPass`, and one driver,
:func:`run_passes`, runs a tool's pass list over the tool's context: it
applies the ``codes`` filter, resolves suppressions and sorts the
report.  A tool supplies only its context, its pass list and its allow
lookup.

Suppression: a finding attached to an edge/arm whose allow set contains
the rule code — or whose subject-level allow set contains it — is marked
``suppressed``.  Suppressed findings stay visible in the JSON output but
do not count towards :attr:`Report.ok`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

#: version of the JSON finding/report schema emitted by every tool
#: (v3 added the optional per-finding ``source_span``)
SCHEMA_VERSION = 3


@dataclass(frozen=True)
class SourceSpan:
    """Provenance of a finding in a source description.

    ``unit`` names the description (the ADL processor name or a file
    path), ``line`` is the 1-based line of the originating declaration.
    The synthesiser stamps ``(unit, line)`` tuples onto the spec states
    and edges it builds; analysis front ends lift them into this type.
    """

    unit: str
    line: int

    def render(self) -> str:
        return f"{self.unit}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        return {"unit": self.unit, "line": self.line}

    @classmethod
    def from_obj(cls, obj) -> Optional["SourceSpan"]:
        """Lift a ``(unit, line)`` tuple / SourceSpan / None."""
        if obj is None or isinstance(obj, cls):
            return obj
        unit, line = obj
        return cls(str(unit), int(line))


class Severity(Enum):
    """Finding severity; ``ERROR`` findings gate the build."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


#: render/sort order: errors first
_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass
class Diagnostic:
    """One finding with a stable rule code and a subject location.

    The location slots are named after the OSM-layer tools (``spec``,
    ``state``, ``edge``); the ISA auditor maps its audit target, the
    instruction class and the decoder arm onto the same three slots so
    all tools share one schema.
    """

    code: str                      #: stable rule code, e.g. "OSM001"
    rule: str                      #: short rule name, e.g. "token-leak"
    severity: Severity
    spec: str                      #: analysis subject (spec or audit target)
    message: str
    state: Optional[str] = None    #: state / instruction class
    edge: Optional[str] = None     #: stable edge qualname / decoder arm
    suppressed: bool = False
    #: source-description provenance (ADL-synthesized subjects only)
    source_span: Optional[SourceSpan] = None

    @property
    def location(self) -> str:
        """``spec:state:edge`` with absent parts elided."""
        parts = [self.spec]
        if self.state is not None:
            parts.append(self.state)
        if self.edge is not None:
            parts.append(self.edge)
        return ":".join(parts)

    def render(self) -> str:
        tag = " [suppressed]" if self.suppressed else ""
        at = f" (at {self.source_span.render()})" if self.source_span else ""
        return (f"{self.location}: {self.severity}: {self.code} "
                f"({self.rule}): {self.message}{at}{tag}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "rule": self.rule,
            "severity": str(self.severity),
            "spec": self.spec,
            "state": self.state,
            "edge": self.edge,
            "message": self.message,
            "suppressed": self.suppressed,
            "source_span": (
                self.source_span.to_dict() if self.source_span else None
            ),
        }


@dataclass
class Report:
    """All findings of one tool run over one analysis subject."""

    spec: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: codes of the passes that ran (even when they found nothing)
    passes_run: List[str] = field(default_factory=list)
    #: emitting tool ("lint", "check", "audit")
    tool: str = "lint"
    #: verdicts derived from the findings (effectcheck's compilability
    #: report): each has ``to_dict()``, serialized under its key, and
    #: ``summary()``, printed after the text summary line
    sections: Dict[str, object] = field(default_factory=dict)

    def extend(self, diagnostics) -> None:
        self.diagnostics.extend(diagnostics)

    def sort(self) -> None:
        self.diagnostics.sort(
            key=lambda d: (_SEVERITY_ORDER[d.severity], d.code, d.state or "", d.edge or "")
        )

    # -- queries -----------------------------------------------------------

    @property
    def active(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if not d.suppressed]

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.active if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.active if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no unsuppressed error-severity finding exists."""
        return not self.errors

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def counts(self) -> Dict[str, int]:
        totals = {str(s): 0 for s in Severity}
        for diagnostic in self.active:
            totals[str(diagnostic.severity)] += 1
        return totals

    # -- renderers ---------------------------------------------------------

    def render_text(self, show_suppressed: bool = False) -> str:
        lines = [
            d.render()
            for d in self.diagnostics
            if show_suppressed or not d.suppressed
        ]
        counts = self.counts()
        n_suppressed = sum(1 for d in self.diagnostics if d.suppressed)
        summary = (
            f"{self.spec}: {counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info, {n_suppressed} suppressed "
            f"({len(self.passes_run)} passes)"
        )
        notes = [f"{self.spec}: {key}: {section.summary()}"
                 for key, section in self.sections.items()]
        return "\n".join(lines + [summary] + notes)

    def to_dict(self) -> Dict[str, object]:
        return {
            "tool": self.tool,
            "schema_version": SCHEMA_VERSION,
            "spec": self.spec,
            "passes": list(self.passes_run),
            "counts": self.counts(),
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            **{key: section.to_dict() for key, section in self.sections.items()},
        }

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# -- the shared pass protocol and driver -------------------------------------

class AnalysisPass:
    """Base class of every rule of every analysis front end.

    A pass has a stable ``code`` (``OSM001``, ``ISA003``…), a ``rule``
    slug and a :meth:`run` generator of findings over its tool's
    context, which names the analysis subject as ``ctx.subject``.
    """

    code: str = "XXX000"
    rule: str = "abstract"

    def run(self, ctx) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diag(
        self,
        ctx,
        message: str,
        severity: Severity = Severity.ERROR,
        state: Optional[str] = None,
        edge=None,
    ) -> Diagnostic:
        """A finding on ``ctx.subject``.  *edge* is either a spec edge —
        its qualname fills the ``edge`` slot and its source state the
        ``state`` slot unless given — or a rendered anchor string."""
        if edge is not None and not isinstance(edge, str):
            if state is None:
                state = edge.src.name
            edge = edge.qualname
        return Diagnostic(
            code=self.code,
            rule=self.rule,
            severity=severity,
            spec=ctx.subject,
            message=message,
            state=state,
            edge=edge,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.code})"


def select(rules: Sequence, codes: Optional[Iterable[str]], what: str) -> list:
    """The *rules* (anything with a ``code``) named in *codes*, or all of
    them when *codes* is None; a code no rule has is a ``ValueError``
    ("unknown *what* code(s)")."""
    if codes is None:
        return list(rules)
    wanted = set(codes)
    unknown = wanted - {rule.code for rule in rules}
    if unknown:
        raise ValueError(f"unknown {what} code(s): {sorted(unknown)}")
    return [rule for rule in rules if rule.code in wanted]


#: ``diagnostic -> codes allowed where it is anchored``
AllowLookup = Callable[[Diagnostic], Iterable[str]]


def allow_lookup(everywhere: Iterable[str],
                 by_anchor: Optional[Dict[str, Iterable[str]]] = None,
                 slot: str = "edge") -> AllowLookup:
    """The codes allowed subject-wide plus those *by_anchor* allows at the
    diagnostic's ``edge`` (or ``state``) slot."""
    everywhere = frozenset(everywhere)
    by_anchor = by_anchor or {}
    return lambda d: everywhere.union(by_anchor.get(getattr(d, slot), ()))


def spec_allow(spec) -> AllowLookup:
    """A machine spec's allow channel: ``spec.lint_allow`` everywhere,
    ``edge.lint_allow`` at each edge."""
    return allow_lookup(
        getattr(spec, "lint_allow", ()),
        {edge.qualname: edge.lint_allow for edge in spec.edges},
    )


def run_passes(
    tool: str,
    ctx,
    passes: Sequence[AnalysisPass],
    codes: Optional[Iterable[str]],
    allowed: AllowLookup,
) -> Report:
    """Run the *passes* named in *codes* (all when None) over *ctx* and
    return *tool*'s sorted report on ``ctx.subject``; a finding whose
    code *allowed* lists for its anchor is marked suppressed."""
    report = Report(spec=ctx.subject, tool=tool)
    for analysis_pass in select(passes, codes, f"{tool} rule"):
        report.passes_run.append(analysis_pass.code)
        for diagnostic in analysis_pass.run(ctx):
            if diagnostic.code in allowed(diagnostic):
                diagnostic.suppressed = True
            report.diagnostics.append(diagnostic)
    report.sort()
    return report
