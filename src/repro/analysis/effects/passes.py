"""The bundled effect rules, EFF001–EFF008.

Each pass consumes the shared :class:`~.engine.EffectContext` (harvest +
memoized footprints) and yields diagnostics.  The error-severity rules
certify the invariants the fast path and the edge compiler rely on;
the warning-severity rules surface effect smells that degrade
analyzability without being provably wrong.

========  =====================  ========================================
code      rule                   certifies
========  =====================  ========================================
EFF001    impure-guard           probe-time code baked by ``edgecompile``
                                 writes nothing beyond the transaction
EFF002    rank-stability-lie     ``@rank_stable_in_flight`` marks are
                                 honest (cached rank order stays valid)
EFF003    rank-input-mutation    in-flight edges don't silently mutate
                                 rank inputs behind the cached order
EFF004    write-write-race       co-enabled sibling edges don't write
                                 the same slot/shared location
EFF005    probe-divergence       custom probes honour the probe
                                 protocol; baked constants stay constant
EFF006    nondeterminism         edge code is replay-deterministic
EFF007    global-mutation        edge code doesn't write module globals
EFF008    opaque-code            certified positions are analyzable and
                                 every codegen fallback is accounted
========  =====================  ========================================
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ...core.osm import Edge
from ...core.primitives import Allocate, AllocateMany
from ..diagnostics import AnalysisPass, Diagnostic, Severity
from ..lint.passes import _fallible_signature
from .engine import EffectContext

#: per-OSM attributes the built-in rankings read; all are assigned only
#: at the state-I boundaries, so a marked rank key restricted to them
#: cannot change for an in-flight operation
RANK_STABLE_READS = {
    "osm",
    "osm.age",
    "osm.serial",
    "osm.tag",
    "osm.spec",
    "osm.operation",
    "osm.operation.seq",
}

#: writes to these exact paths re-rank an OSM; legal only on edges that
#: touch the initial state (where the director re-sorts anyway)
RANK_INPUT_PATHS = {
    "osm.operation",
    "osm.operation.seq",
    "osm.age",
    "osm.serial",
    "osm.tag",
}


def _probe_write_allowed(path: str) -> bool:
    """Writes the probe protocol sanctions: tentative effects go to the
    transaction, and a failed probe records what it blocked on."""
    return path == "txn" or path.startswith("txn.") or path == "osm.blocked_on"


def _shared_write(path: str) -> bool:
    return path.startswith(("shared:", "global:", "?"))


class ImpureGuardPass(AnalysisPass):
    """EFF001: a probe-time callable (guard predicate, dynamic token
    identifier, release value) with effects beyond the probe protocol.

    ``edgecompile`` bakes these callables into specialised probe
    functions and the director's version-gated fast path *skips
    re-probing* unchanged states — both transformations assume probing
    is free of side effects.  A guard that mutates OSM, manager, shared
    or global state (or bumps the observable version via ``notify``)
    breaks that assumption: how often it runs becomes behaviour.
    """

    code = "EFF001"
    rule = "impure-guard"

    def run(self, ctx: EffectContext) -> Iterator[Diagnostic]:
        for site in ctx.sites_by_role("guard", "ident", "value"):
            fp = ctx.footprint(site)
            bad = sorted(w for w in fp.writes if not _probe_write_allowed(w))
            if bad:
                yield self.diag(
                    ctx,
                    f"{site.name} writes {', '.join(bad)} at probe time — "
                    f"probe-time code is baked by the edge compiler and "
                    f"may be skipped by the version-gated fast path, so "
                    f"it must not have effects",
                    edge=site.edge,
                )
            if fp.notifies:
                yield self.diag(
                    ctx,
                    f"{site.name} calls notify() at probe time — bumping "
                    f"the observable version from inside a probe makes "
                    f"the fast path's re-probe decision self-triggering",
                    edge=site.edge,
                )


class RankStabilityPass(AnalysisPass):
    """EFF002: a rank key carrying the ``rank_stable_in_flight`` mark
    reads state that can change while an operation is in flight.

    The director keeps its cached rank order across control steps on
    the strength of the mark (re-sorting only at state-I boundaries).
    A marked key that reads anything beyond the I-boundary-stable
    attributes would let the cached order silently go stale — a
    scheduling bug that manifests as rare, input-dependent reorderings.
    """

    code = "EFF002"
    rule = "rank-stability-lie"

    def run(self, ctx: EffectContext) -> Iterator[Diagnostic]:
        for site in ctx.sites_by_role("rank"):
            if not getattr(site.fn, "rank_changes_only_at_initial", False):
                continue  # unmarked keys are conservatively re-sorted
            fp = ctx.footprint(site)
            if not fp.analyzable:
                yield self.diag(
                    ctx,
                    f"{site.name} is marked rank_stable_in_flight but its "
                    f"source is not analyzable ({fp.reason}) — the mark "
                    f"cannot be verified",
                    severity=Severity.WARNING,
                )
                continue
            bad_reads = sorted(r for r in fp.reads if r not in RANK_STABLE_READS)
            problems = []
            if bad_reads:
                problems.append(f"reads {', '.join(bad_reads)}")
            if fp.writes:
                problems.append(f"writes {', '.join(sorted(fp.writes))}")
            if fp.nondet:
                problems.append(
                    f"uses nondeterminism ({', '.join(sorted(fp.nondet))})"
                )
            if problems:
                yield self.diag(
                    ctx,
                    f"{site.name} is marked rank_stable_in_flight but "
                    f"{'; '.join(problems)} — only I-boundary-stable OSM "
                    f"attributes (age, serial, tag, operation identity, "
                    f"operation.seq) may feed a marked ranking; the "
                    f"director's cached rank order would go stale",
                )


class RankInputMutationPass(AnalysisPass):
    """EFF003: an in-flight edge (neither endpoint initial) whose action
    or destination ``on_enter`` writes a rank input.

    With a marked rank key the director re-sorts only after transitions
    touching state I; an action on an interior edge that reassigns
    ``osm.operation``/``age``/``tag``/``seq`` changes the OSM's rank
    without marking the cached order dirty.
    """

    code = "EFF003"
    rule = "rank-input-mutation"

    def run(self, ctx: EffectContext) -> Iterator[Diagnostic]:
        rank_key = getattr(ctx.spec, "analysis_rank_key", None)
        if rank_key is None or not getattr(
            rank_key, "rank_changes_only_at_initial", False
        ):
            return  # unmarked/unknown ranking: director re-sorts anyway
        for site in ctx.sites_by_role("action"):
            edge = site.edge
            if edge is None or edge.src.is_initial or edge.dst.is_initial:
                continue
            fp = ctx.footprint(site)
            bad = sorted(w for w in fp.writes if w in RANK_INPUT_PATHS)
            if bad:
                yield self.diag(
                    ctx,
                    f"{site.name} on in-flight edge writes {', '.join(bad)} "
                    f"— rank inputs may only change at state-I boundaries, "
                    f"where the director re-sorts its cached rank order",
                    edge=edge,
                )
        inbound: Dict[str, List[Edge]] = {}
        for edge in ctx.spec.edges:
            inbound.setdefault(edge.dst.name, []).append(edge)
        for site in ctx.sites_by_role("on_enter"):
            interior = [
                e for e in inbound.get(site.state, [])
                if not (e.src.is_initial or e.dst.is_initial)
            ]
            if not interior:
                continue
            fp = ctx.footprint(site)
            bad = sorted(w for w in fp.writes if w in RANK_INPUT_PATHS)
            if bad:
                yield self.diag(
                    ctx,
                    f"{site.name} of state {site.state} writes "
                    f"{', '.join(bad)} and the state is entered by "
                    f"in-flight edge(s) "
                    f"{', '.join(e.qualname for e in interior)} — rank "
                    f"inputs may only change at state-I boundaries",
                    state=site.state,
                )


def _edge_write_targets(ctx: EffectContext, edge: Edge) -> Set[str]:
    """The statically-known write targets of one edge firing: token
    slots it allocates into, plus shared/global writes of its callables."""
    targets: Set[str] = set()
    for primitive in edge.condition.primitives:
        if isinstance(primitive, Allocate):
            targets.add(f"slot:{primitive.slot}")
        elif isinstance(primitive, AllocateMany):
            targets.add(f"slot:{primitive.slot}*")
    for site in ctx.sites:
        if site.edge is not edge:
            continue
        fp = ctx.footprint(site)
        targets.update(w for w in fp.writes if _shared_write(w))
    return targets


class WriteRacePass(AnalysisPass):
    """EFF004: same-priority sibling edges that are not statically
    disjoint and write overlapping targets.

    Two OSMs sitting in the same state in the same control step may
    take *different* same-priority siblings; when the siblings are not
    statically distinguishable (one fallible signature contains the
    other) and both write the same token slot or the same shared
    location, which write lands last is decided by the director's rank
    order — a scheduling-sensitive race the edge compiler must not fuse
    and model authors almost never intend.
    """

    code = "EFF004"
    rule = "write-write-race"

    def run(self, ctx: EffectContext) -> Iterator[Diagnostic]:
        for state in ctx.spec.states.values():
            by_priority: Dict[int, List[Edge]] = {}
            for edge in state.out_edges:
                by_priority.setdefault(edge.priority, []).append(edge)
            for priority, group in by_priority.items():
                if len(group) < 2:
                    continue
                annotated = [
                    (edge, _fallible_signature(edge), _edge_write_targets(ctx, edge))
                    for edge in group
                ]
                for i, (edge_a, sig_a, wr_a) in enumerate(annotated):
                    for edge_b, sig_b, wr_b in annotated[i + 1:]:
                        if not (sig_a <= sig_b or sig_b <= sig_a):
                            continue  # statically disjoint: cannot co-fire
                        overlap = sorted(wr_a & wr_b)
                        if overlap:
                            yield self.diag(
                                ctx,
                                f"not statically disjoint from same-priority "
                                f"sibling {edge_b.qualname!r} and both write "
                                f"{', '.join(overlap)} — which write lands "
                                f"is decided by scheduling order (priority "
                                f"{priority})",
                                edge=edge_a,
                            )


class ProbeDivergencePass(AnalysisPass):
    """EFF005: custom primitive probes that break the probe protocol,
    and edge code that mutates baked primitive constants.

    A custom ``Primitive.probe`` that writes shared state diverges
    between compiled and interpreted execution (the compiler's plan
    cache changes how often probes run).  Likewise, an action that
    rebinds an attribute of a primitive object (e.g. changing an
    ``Allocate``'s identifier after build) invalidates the constants
    the edge compiler baked into specialised probes at plan time.
    """

    code = "EFF005"
    rule = "probe-divergence"

    def run(self, ctx: EffectContext) -> Iterator[Diagnostic]:
        for site in ctx.sites_by_role("probe"):
            fp = ctx.footprint(site)
            bad = sorted(w for w in fp.writes if not _probe_write_allowed(w))
            if bad or fp.notifies:
                effects = bad + (["notify()"] if fp.notifies else [])
                yield self.diag(
                    ctx,
                    f"{site.name} writes {', '.join(effects)} — a probe "
                    f"must record tentative effects only in the "
                    f"transaction; anything else diverges between "
                    f"compiled and interpreted probing",
                    edge=site.edge,
                )
        prim_types = {
            type(p).__name__
            for e in ctx.spec.edges
            for p in e.condition.primitives
        }
        prim_roots = {f"shared:{name}." for name in prim_types}
        for site in ctx.sites_by_role("action", "on_enter", "guard", "ident", "value"):
            fp = ctx.footprint(site)
            baked = sorted(
                w for w in fp.writes
                if any(w.startswith(root) for root in prim_roots)
            )
            if baked:
                yield self.diag(
                    ctx,
                    f"{site.name} writes primitive attribute(s) "
                    f"{', '.join(baked)} — the edge compiler bakes "
                    f"primitive constants into specialised probes at "
                    f"plan-build time, so later mutation silently "
                    f"diverges from the interpreted condition",
                    edge=site.edge,
                    state=site.state,
                )


class NondetPass(AnalysisPass):
    """EFF006: edge code touching nondeterminism sources.

    ``repro bench`` verifies the fast path by re-running under the
    reference scheduler and comparing results; any ``random``/``time``/
    ``id()``-dependent edge code makes runs non-replayable and the
    verification meaningless.
    """

    code = "EFF006"
    rule = "nondeterminism"

    def run(self, ctx: EffectContext) -> Iterator[Diagnostic]:
        for site in ctx.sites:
            fp = ctx.footprint(site)
            if fp.nondet:
                yield self.diag(
                    ctx,
                    f"{site.name} uses nondeterminism source(s) "
                    f"{', '.join(sorted(fp.nondet))} — simulation results "
                    f"would not be replay-deterministic",
                    edge=site.edge,
                    state=site.state,
                )


class GlobalWritePass(AnalysisPass):
    """EFF007: edge code writing module-global state.

    Not necessarily wrong (a debug counter, a trace hook) but it leaks
    simulation state out of the OSM/manager world the analyses reason
    about, and makes model instances interfere with each other.
    """

    code = "EFF007"
    rule = "global-mutation"

    def run(self, ctx: EffectContext) -> Iterator[Diagnostic]:
        for site in ctx.sites:
            fp = ctx.footprint(site)
            bad = sorted(w for w in fp.writes if w.startswith("global:"))
            if bad:
                yield self.diag(
                    ctx,
                    f"{site.name} writes module global(s) {', '.join(bad)}",
                    severity=Severity.WARNING,
                    edge=site.edge,
                    state=site.state,
                )


class OpaqueCodePass(AnalysisPass):
    """EFF008: unanalyzable code in certified positions, and every edge
    whose probe fell back to the interpreter.

    The purity certificates of EFF001/EFF002/EFF005 are only as good as
    the analyzer's visibility; a probe-time callable it cannot see
    through gets a warning instead of a silent pass.  The second half
    surfaces the edge compiler's own census: each edge whose condition
    could not be compiled (opt-out primitive, codegen error, policy) is
    named with its reason, so fallbacks are a visible budget rather
    than a silent slowdown.
    """

    code = "EFF008"
    rule = "opaque-code"

    def run(self, ctx: EffectContext) -> Iterator[Diagnostic]:
        for site in ctx.sites:
            if not (site.probe_time or site.role == "rank"):
                continue
            fp = ctx.footprint(site)
            if not fp.analyzable:
                yield self.diag(
                    ctx,
                    f"{site.name} is not statically analyzable "
                    f"({fp.reason}) — its purity cannot be certified",
                    severity=Severity.WARNING,
                    edge=site.edge,
                    state=site.state,
                )
            elif fp.opaque:
                yield self.diag(
                    ctx,
                    f"{site.name} makes call(s) the analyzer cannot see "
                    f"through: {', '.join(sorted(fp.opaque))} — purity "
                    f"certified only for the visible part",
                    severity=Severity.WARNING,
                    edge=site.edge,
                    state=site.state,
                )
            elif fp.via_bytecode:
                yield self.diag(
                    ctx,
                    f"{site.name} was analyzed from bytecode only (no "
                    f"recoverable source) — footprint is coarse",
                    severity=Severity.WARNING,
                    edge=site.edge,
                    state=site.state,
                )
        stats = ctx.compile_stats
        if stats is not None:
            edges = {edge.qualname: edge for edge in ctx.spec.edges}
            for qualname, reason in stats.fallback_edges:
                edge_obj = edges.get(qualname)
                message = f"edge probe falls back to the interpreter ({reason})"
                if edge_obj is None:
                    message = f"{qualname}: {message}"
                yield self.diag(
                    ctx, message, severity=Severity.WARNING, edge=edge_obj
                )
