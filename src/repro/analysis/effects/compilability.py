"""Per-model compilability report: which states the fuser may compile.

effectcheck's certification output, consumed by
:func:`repro.core.fuse.enable_fusion`: a per-state verdict (*fusable* —
every outgoing edge's probe-time code is certified pure, so the state
may run a generated stepper).  Every other state runs the interpreted
reference, which is also where an edge with an EFF001/EFF005/EFF006
error ends up: those codes block fusion of the edge's source state.

Verdicts are derived from an effects :class:`~..diagnostics.Report`: a
state is **fusable** when none of its outgoing edges carries an
unsuppressed error-severity EFF001/EFF004/EFF005/EFF006 finding and
none carries an (unsuppressed) EFF008 finding — i.e. probing the state
is provably effect-free, race-free, deterministic, and fully visible to
both the analyzer and the compiler.

Audited suppressions (``allow_lint("EFF…")``) are deliberately
excluded: a suppression is a human assertion that the finding is a
false positive, and the report trusts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ...core.osm import MachineSpec
from ..diagnostics import Report, Severity

#: error codes that block whole-state fusion
FUSION_BLOCKERS = {"EFF001", "EFF004", "EFF005", "EFF006"}

#: the analyzability/fallback rule: warnings here block fusion too,
#: because fusing code nobody can see through certifies nothing
OPACITY_CODE = "EFF008"


@dataclass
class StateVerdict:
    state: str
    fusable: bool
    #: rule codes of the findings that blocked fusion (empty if fusable)
    blockers: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {"fusable": self.fusable, "blockers": list(self.blockers)}


@dataclass
class CompilabilityReport:
    spec: str
    verdicts: Dict[str, StateVerdict] = field(default_factory=dict)

    @property
    def fusable_states(self) -> List[str]:
        return sorted(v.state for v in self.verdicts.values() if v.fusable)

    @property
    def fully_compilable(self) -> bool:
        """Every state fusable: the whole model is certified for
        generated steppers."""
        return all(v.fusable for v in self.verdicts.values())

    def summary(self) -> str:
        """The one-line verdict printed under the effects text report."""
        if self.fully_compilable:
            return "fully compilable"
        return f"{len(self.fusable_states)}/{len(self.verdicts)} states fusable"

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec,
            "fully_compilable": self.fully_compilable,
            "fusable_states": self.fusable_states,
            "states": {
                name: verdict.to_dict()
                for name, verdict in sorted(self.verdicts.items())
            },
        }


def compilability_report(spec: MachineSpec, report: Report) -> CompilabilityReport:
    """Derive the per-state fusion verdicts of *spec* from an effects
    *report* over it."""
    edge_findings: Dict[str, List] = {}
    for diagnostic in report.diagnostics:
        if diagnostic.suppressed or diagnostic.edge is None:
            continue
        edge_findings.setdefault(diagnostic.edge, []).append(diagnostic)

    result = CompilabilityReport(spec=spec.name)
    for state in spec.states.values():
        blockers: List[str] = []
        for edge in state.out_edges:
            for diagnostic in edge_findings.get(edge.qualname, ()):
                code = diagnostic.code
                blocking = (
                    code in FUSION_BLOCKERS
                    and diagnostic.severity is Severity.ERROR
                ) or code == OPACITY_CODE
                if blocking:
                    blockers.append(code)
        result.verdicts[state.name] = StateVerdict(
            state=state.name,
            fusable=not blockers,
            blockers=sorted(set(blockers)),
        )
    return result
