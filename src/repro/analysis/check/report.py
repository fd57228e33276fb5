"""Check reports: property verdicts rendered like lint reports.

A :class:`CheckReport` reuses the shared
:class:`~repro.analysis.diagnostics.Diagnostic` machinery so that
``repro lint`` and ``repro check`` emit uniform findings — stable codes,
severities, ``spec:state:edge`` locations, text and JSON — with one
addition: every violated property carries a shortest counterexample
:class:`~.explore.Trace`, rendered step by step under the diagnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..diagnostics import SCHEMA_VERSION, Diagnostic, Severity
from .explore import Trace


@dataclass
class Finding:
    """One violated property: a diagnostic plus its counterexample."""

    diagnostic: Diagnostic
    trace: Optional[Trace] = None
    #: the violating system state (e.g. the deadlocked configuration of
    #: a CHK004 finding)
    state: Optional[object] = None

    def render(self) -> str:
        lines = [self.diagnostic.render()]
        if self.trace is not None:
            lines.append(f"  counterexample ({len(self.trace)} steps):")
            lines.append(self.trace.render(indent="    "))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        payload = self.diagnostic.to_dict()
        payload["trace"] = self.trace.to_dict() if self.trace is not None else None
        return payload


@dataclass
class CheckReport:
    """All findings of one model-check run over one specification."""

    spec: str
    n_osms: int
    findings: List[Finding] = field(default_factory=list)
    #: property codes verified (even when nothing was found)
    properties_checked: List[str] = field(default_factory=list)
    n_states: int = 0
    n_transitions: int = 0
    #: transition firings performed (exploration work, before dedup)
    n_fired: int = 0
    truncated: bool = False
    reduction: bool = True
    #: audit trail of the pure-token abstraction, when one was applied
    abstraction: Dict[str, object] = field(default_factory=dict)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return [finding.diagnostic for finding in self.findings]

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when every property held on the fully-explored system."""
        return not self.errors and not self.truncated

    def by_code(self, code: str) -> List[Finding]:
        return [f for f in self.findings if f.diagnostic.code == code]

    def trace_for(self, code: str) -> Optional[Trace]:
        for finding in self.by_code(code):
            if finding.trace is not None:
                return finding.trace
        return None

    # -- renderers ---------------------------------------------------------

    def render_text(self, show_suppressed: bool = False) -> str:
        """Findings with their traces, then the verdict line (model
        checking has no suppressions; *show_suppressed* is accepted so
        every tool's report renders alike)."""
        lines = [finding.render() for finding in self.findings]
        mode = "por+symmetry" if self.reduction else "naive"
        verdict = "ok" if self.ok else ("TRUNCATED" if self.truncated and not self.errors
                                        else f"{len(self.errors)} violation(s)")
        lines.append(
            f"{self.spec}: {verdict} — {len(self.properties_checked)} properties, "
            f"{self.n_osms} OSMs, {self.n_states} states, "
            f"{self.n_transitions} transitions ({mode})"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "tool": "check",
            "schema_version": SCHEMA_VERSION,
            "spec": self.spec,
            "n_osms": self.n_osms,
            "ok": self.ok,
            "truncated": self.truncated,
            "reduction": self.reduction,
            "properties": list(self.properties_checked),
            "n_states": self.n_states,
            "n_transitions": self.n_transitions,
            "n_fired": self.n_fired,
            "abstraction": dict(self.abstraction),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
