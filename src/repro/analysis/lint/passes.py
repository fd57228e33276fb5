"""The bundled lint rules, codes ``OSM001``–``OSM008``.

Each rule is an :class:`~..diagnostics.AnalysisPass`; see
``docs/static-analysis.md`` for the paper grounding, severities and
worked examples of every code.

========  ==================  ==========================================
code      rule                finds
========  ==================  ==========================================
OSM001    token-leak          tokens still held on an edge back to I
OSM002    vacuous-release     release/discard of a never-allocated slot
OSM003    double-allocate     allocate into a slot already occupied
OSM004    ambiguous-siblings  same-priority sibling edges that are not
                              statically distinguishable
OSM005    shadowed-edge       an unconditional higher-priority sibling
                              makes the edge dead
OSM006    reachability        unreachable / trapping / non-returning
                              states, dead edges
OSM007    over-capacity       definite allocation demand exceeding the
                              manager's static capacity
OSM008    resource-cycle      cyclic hold-allocate dependencies
                              (potential scheduling deadlock)
========  ==================  ==========================================
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Tuple

from ...core.osm import Edge
from ...core.primitives import (
    Allocate,
    AllocateMany,
    Discard,
    Guard,
    Inquire,
    Release,
    ReleaseMany,
)
from ..diagnostics import AnalysisPass, Diagnostic, Severity
from .engine import LintContext


class TokenLeakPass(AnalysisPass):
    """OSM001: an edge returning to the initial state leaves tokens in
    the buffer.

    The static complement of the dynamic invariant enforced by
    ``OperationStateMachine.try_transition`` ("Back to I: token buffer
    must be empty") and checked by osmcheck's buffer-hygiene property
    (CHK002): here the leak is caught without running anything.  A slot
    that is *definitely* held leaks on every execution (error); a slot
    that is only *possibly* held (conditional or dynamic allocation)
    leaks on some executions (warning).
    """

    code = "OSM001"
    rule = "token-leak"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for leak in ctx.buffers.leaks.values():
            if leak.must_slots:
                yield self.diag(
                    ctx,
                    f"returns to initial state still holding "
                    f"{sorted(leak.must_slots)} — release or discard them "
                    f"on this edge",
                    severity=Severity.ERROR,
                    edge=leak.edge,
                )
            may_only = leak.may_slots - leak.must_slots
            if may_only:
                yield self.diag(
                    ctx,
                    f"may return to initial state holding {sorted(may_only)} "
                    f"(conditionally allocated and never released)",
                    severity=Severity.WARNING,
                    edge=leak.edge,
                )


class VacuousReleasePass(AnalysisPass):
    """OSM002: a ``Release``/``Discard`` names a slot that no path ever
    allocates.

    ``Release`` of an empty slot vacuously succeeds at run time (the
    optional-resource idiom), so a never-allocated target is silent —
    and almost always a typo in the slot name or a forgotten allocation.
    Reported only when the slot is unheld in *every* configuration
    reaching the edge; a slot held on some paths is the intended idiom.
    """

    code = "OSM002"
    rule = "vacuous-release"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for target in ctx.buffers.release_targets.values():
            if target.held_somewhere:
                continue
            noun = {
                "release": "release of slot",
                "release-many": "release of slot family",
                "discard": "discard of slot",
            }[target.kind]
            yield self.diag(
                ctx,
                f"{noun} {target.target!r} which is never allocated on any "
                f"path to this edge — misspelled slot or missing Allocate?",
                severity=Severity.WARNING,
                edge=target.edge,
            )


class DoubleAllocatePass(AnalysisPass):
    """OSM003: an ``Allocate`` targets a slot the buffer already holds.

    The commit would silently overwrite the held token's buffer entry,
    losing the only reference through which it can ever be released —
    a guaranteed leak of the earlier token.  Definite-over-definite is
    an error; combinations involving conditional grants are warnings.
    """

    code = "OSM003"
    rule = "double-allocate"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for event in ctx.buffers.double_allocates:
            severity = Severity.ERROR if event.definite else Severity.WARNING
            yield self.diag(
                ctx,
                f"allocates into slot {event.slot!r} while it already holds "
                f"a {event.holder_manager} token — the earlier token would "
                f"be orphaned",
                severity=severity,
                edge=event.edge,
            )


def _fallible_signature(edge: Edge) -> FrozenSet[Tuple]:
    """The set of statically distinguishable, *fallible* atoms of an
    edge's condition.

    Guards and inquiries (and allocations) are what make one sibling
    edge fire where another does not; ``Discard`` never fails and so
    cannot distinguish anything.  Callable identifiers are compared by
    object identity: two edges inquiring via the same callable are
    indistinguishable, via different callables distinguishable.
    """
    atoms = set()
    for primitive in edge.condition.primitives:
        if isinstance(primitive, Guard):
            atoms.add(("guard", primitive.label))
        elif isinstance(primitive, Inquire):
            atoms.add(("inquire", primitive.manager.name, _ident_key(primitive.ident)))
        elif isinstance(primitive, Allocate):
            atoms.add(("allocate", primitive.manager.name, primitive.slot,
                       _ident_key(primitive.ident)))
        elif isinstance(primitive, AllocateMany):
            atoms.add(("allocate-many", primitive.manager.name, primitive.slot,
                       _ident_key(primitive.idents)))
        elif isinstance(primitive, Release):
            atoms.add(("release", primitive.slot))
        elif isinstance(primitive, ReleaseMany):
            atoms.add(("release-many", primitive.prefix))
        elif isinstance(primitive, Discard):
            pass  # always succeeds: no discriminating power
        else:
            # Custom primitives: distinguishable iff their reprs differ.
            atoms.add((getattr(primitive, "kind", "primitive"), repr(primitive)))
    return frozenset(atoms)


def _ident_key(ident) -> str:
    if callable(ident):
        return f"callable:{id(ident)}"
    return f"value:{ident!r}"


class AmbiguousSiblingsPass(AnalysisPass):
    """OSM004: same-priority sibling edges that are not statically
    distinguishable.

    Disjunction in the OSM formalism is parallel edges with static
    priorities (Section 3.3); within one priority the declaration order
    silently breaks ties.  When one sibling's fallible condition atoms
    are a subset of another's, every situation enabling the stronger
    edge also enables the weaker one, and which fires is decided by
    declaration order alone — almost never what the author meant.
    Edges distinguished by distinct guards/inquiries (the routing idiom
    of the bundled superscalar and multithreaded models) are disjoint
    by construction and not reported.
    """

    code = "OSM004"
    rule = "ambiguous-siblings"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for state in ctx.spec.states.values():
            by_priority: Dict[int, List[Edge]] = {}
            for edge in state.out_edges:
                by_priority.setdefault(edge.priority, []).append(edge)
            for priority, group in by_priority.items():
                if len(group) < 2:
                    continue
                signatures = [(edge, _fallible_signature(edge)) for edge in group]
                for i, (edge_a, sig_a) in enumerate(signatures):
                    for edge_b, sig_b in signatures[i + 1:]:
                        if sig_a <= sig_b or sig_b <= sig_a:
                            yield self.diag(
                                ctx,
                                f"not statically distinguishable from "
                                f"same-priority sibling {edge_b.qualname!r} "
                                f"(priority {priority}) — declaration order "
                                f"silently decides which fires; add a guard "
                                f"or distinct priorities",
                                severity=Severity.WARNING,
                                edge=edge_a,
                            )


def _is_unconditional(edge: Edge) -> bool:
    """True when no primitive of the edge's condition can fail."""
    return all(
        isinstance(p, Discard) for p in edge.condition.primitives
    )


class ShadowedEdgePass(AnalysisPass):
    """OSM005: a sibling edge that can never fire because an
    unconditional edge of higher effective priority always wins.

    ``try_transition`` probes outgoing edges in static-priority order
    (declaration order breaking ties) and takes the first satisfied
    one; an edge whose condition cannot fail therefore makes every
    later sibling dead code.
    """

    code = "OSM005"
    rule = "shadowed-edge"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for state in ctx.spec.states.values():
            blocker = None
            # out_edges are already sorted: priority desc, then
            # declaration order — exactly the probe order.
            for edge in state.out_edges:
                if blocker is not None:
                    yield self.diag(
                        ctx,
                        f"dead edge: unconditionally shadowed by "
                        f"{blocker.qualname!r} (priority {blocker.priority}, "
                        f"condition can never fail)",
                        severity=Severity.ERROR,
                        edge=edge,
                    )
                elif _is_unconditional(edge):
                    blocker = edge


class ReachabilityPass(AnalysisPass):
    """OSM006: unreachable states, trapping states, states that cannot
    return to I, and edges out of unreachable states.

    Rehomes the retired ``repro.analysis.reachability`` module as a lint rule so the
    graph-liveness findings carry stable codes and severities alongside
    the token-lifecycle rules.
    """

    code = "OSM006"
    rule = "reachability"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        report = ctx.reachability
        for name in sorted(report.unreachable):
            yield self.diag(
                ctx,
                f"state {name!r} is unreachable from the initial state",
                severity=Severity.ERROR,
                state=name,
            )
        for name in sorted(report.trapping):
            yield self.diag(
                ctx,
                f"state {name!r} has no outgoing edges: operations entering "
                f"it are trapped forever",
                severity=Severity.ERROR,
                state=name,
            )
        for name in sorted(report.non_returning - report.trapping):
            yield self.diag(
                ctx,
                f"no path from state {name!r} back to the initial state: "
                f"operations can be permanently absorbed",
                severity=Severity.ERROR,
                state=name,
            )
        for edge in ctx.spec.edges:
            if edge.src.name in report.unreachable:
                yield self.diag(
                    ctx,
                    "dead edge: its source state is unreachable",
                    severity=Severity.WARNING,
                    edge=edge,
                )


class CapacityPass(AnalysisPass):
    """OSM007: an allocation whose definite demand exceeds the manager's
    static capacity.

    When one operation must simultaneously hold more tokens of a
    manager than the manager owns, the allocating edge can never fire —
    the operation stalls there forever.  Uses the read-only
    ``TokenManager.capacity`` introspection hook (``None`` = unbounded
    or per-identifier, skipped).
    """

    code = "OSM007"
    rule = "over-capacity"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for event in ctx.buffers.over_capacity:
            yield self.diag(
                ctx,
                f"edge needs {event.demand} simultaneous {event.manager} "
                f"tokens but the manager's capacity is {event.capacity} — "
                f"this edge can never fire",
                severity=Severity.ERROR,
                edge=event.edge,
            )


class ResourceCyclePass(AnalysisPass):
    """OSM008: cyclic hold-allocate resource dependencies.

    Section 3.4: cyclic resource dependency between managers implies a
    cyclic pipeline, where scheduling deadlock may occur at run time.
    Rehomes the retired ``repro.analysis.deadlock`` module as a lint rule; a cycle is a
    warning (some cyclic pipelines are deliberate and resolved by
    manager policy), promote per-model via CI if desired.
    """

    code = "OSM008"
    rule = "resource-cycle"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for cycle in ctx.deadlock.cycles:
            yield self.diag(
                ctx,
                f"cyclic hold-allocate dependency {' -> '.join(cycle)} — "
                f"potential scheduling deadlock (cyclic pipeline)",
                severity=Severity.WARNING,
            )
