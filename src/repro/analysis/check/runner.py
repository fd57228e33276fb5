"""High-level entry points: check a closed system, a spec, or a model.

* :func:`check_system` — verify a hand-built closed token system
  (spec + managers), the checker's ground-truth interface;
* :func:`check_spec` — abstract any :class:`~repro.core.MachineSpec`
  into a pure token system (:mod:`.abstraction`) and verify that;
* :func:`check_model` — look a spec up in the shared registry
  (:mod:`repro.analysis.registry`) by name, abstract, verify — the
  ``repro check <model>`` / CI path.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

from ...core.osm import MachineSpec
from ..diagnostics import Diagnostic, Severity, select
from .abstraction import purify
from .explore import ExploreResult, explore
from .properties import Property, StateProperty, default_properties
from .report import CheckReport, Finding
from .system import SystemState, TokenSystem


def check_system(
    spec: MachineSpec,
    managers: Sequence,
    n_osms: int = 2,
    properties: Optional[Sequence[Property]] = None,
    codes: Optional[Iterable[str]] = None,
    reduction: bool = True,
    max_states: int = 200_000,
) -> CheckReport:
    """Exhaustively verify the closed token system and report per-property
    verdicts with shortest counterexample traces."""
    if properties is None:
        properties = default_properties()
    properties = select(properties, codes, "property")

    system = TokenSystem(spec, managers, n_osms)
    state_props = [p for p in properties if isinstance(p, StateProperty)]
    prop_codes = [p.code for p in properties]

    result = explore(system, state_props, reduction=reduction, max_states=max_states)

    report = CheckReport(
        spec=spec.name,
        n_osms=n_osms,
        properties_checked=prop_codes,
        n_states=result.n_states,
        n_transitions=result.n_transitions,
        n_fired=result.n_fired,
        truncated=result.truncated,
        reduction=reduction,
    )

    # -- safety: first (shortest) hit per property code --------------------
    best: Dict[str, object] = {}
    for hit in result.hits:
        incumbent = best.get(hit.code)
        if incumbent is None or hit.depth < incumbent.depth:
            best[hit.code] = hit
    for code in sorted(best):
        hit = best[code]
        if code not in prop_codes:
            continue  # fire-time hits for properties the caller filtered out
        report.findings.append(
            _finding(spec.name, code, hit.message, result.trace_to(hit.state), hit.state)
        )

    # -- progress/liveness on the explored graph ---------------------------
    if not result.truncated:
        expanded = result.successors
        if "CHK004" in prop_codes:
            deadlocks = [
                state for state, outgoing in expanded.items()
                if not outgoing and not system.is_home(state)
            ]
            if deadlocks:
                state = min(deadlocks, key=lambda s: result.depths[s])
                report.findings.append(_finding(
                    spec.name, "CHK004",
                    "deadlock: no OSM can fire any edge in this state "
                    "under any schedule",
                    result.trace_to(state), state,
                ))
        if "CHK005" in prop_codes:
            stranded = _non_home_returning(system, result)
            graph = result
            if stranded and reduction:
                # POR preserves safety and deadlock but not home-return
                # (AG EF home is a branching property): a pruned
                # interleaving may be the only one draining the system.
                # Re-judge suspects exactly on the symmetry-only quotient,
                # which is a bisimulation of the full interleaving.
                graph = explore(system, [], symmetry=True, por=False,
                                max_states=max_states)
                if graph.truncated:
                    report.truncated = True
                    stranded = []
                else:
                    stranded = _non_home_returning(system, graph)
            if stranded:
                state = min(stranded, key=lambda s: graph.depths[s])
                report.findings.append(_finding(
                    spec.name, "CHK005",
                    "livelock: no home state (every OSM back in its initial "
                    "state) is reachable from this state",
                    graph.trace_to(state), state,
                ))
    return report


def check_spec(
    spec: MachineSpec,
    n_osms: int = 2,
    properties: Optional[Sequence[Property]] = None,
    codes: Optional[Iterable[str]] = None,
    reduction: bool = True,
    max_states: int = 200_000,
) -> CheckReport:
    """Abstract *spec* into a pure token system and verify it."""
    pure = purify(spec)
    report = check_system(
        pure.spec, pure.managers, n_osms=n_osms, properties=properties,
        codes=codes, reduction=reduction, max_states=max_states,
    )
    report.spec = spec.name
    for diagnostic in report.diagnostics:
        diagnostic.spec = spec.name
    report.abstraction = {
        "managers": dict(pure.manager_map),
        "edges_dropped": pure.n_edges_dropped,
        "primitives_dropped": pure.n_primitives_dropped,
    }
    return report


def check_model(
    name: str,
    n_osms: int = 2,
    properties: Optional[Sequence[Property]] = None,
    codes: Optional[Iterable[str]] = None,
    reduction: bool = True,
    max_states: int = 200_000,
) -> CheckReport:
    """Check a registered model specification by its registry name."""
    from ..registry import build_spec

    spec = build_spec(name)
    report = check_spec(
        spec, n_osms=n_osms, properties=properties, codes=codes,
        reduction=reduction, max_states=max_states,
    )
    # key the report by its registry name (spec.name may differ)
    report.spec = name
    for diagnostic in report.diagnostics:
        diagnostic.spec = name
    return report


def _finding(spec_name: str, code: str, message: str, trace, state) -> Finding:
    from .properties import DEFAULT_PROPERTIES

    prop = DEFAULT_PROPERTIES.get(code)
    rule = prop.rule if prop is not None else "custom"
    last_edge = trace.steps[-1].edge if trace.steps else None
    diagnostic = Diagnostic(
        code=code,
        rule=rule,
        severity=Severity.ERROR,
        spec=spec_name,
        message=message,
        state=last_edge.src.name if last_edge is not None else None,
        edge=last_edge.qualname if last_edge is not None else None,
    )
    finding = Finding(diagnostic=diagnostic, trace=trace)
    finding.state = state
    return finding


def _non_home_returning(system: TokenSystem, result: ExploreResult) -> List[SystemState]:
    """Expanded states from which no home state is reachable, excluding
    deadlocks (those are CHK004's to report)."""
    reverse: Dict[SystemState, List[SystemState]] = {}
    for state, outgoing in result.successors.items():
        for _, _, successor in outgoing:
            reverse.setdefault(successor, []).append(state)
    homes = [state for state in result.successors if system.is_home(state)]
    co_reachable = set(homes)
    queue = deque(homes)
    while queue:
        state = queue.popleft()
        for predecessor in reverse.get(state, ()):
            if predecessor not in co_reachable:
                co_reachable.add(predecessor)
                queue.append(predecessor)
    return [
        state for state, outgoing in result.successors.items()
        if state not in co_reachable and outgoing
    ]
