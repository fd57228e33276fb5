"""transcheck engine: contexts, the TRV rule passes, and the drivers.

The TRV rules are :class:`~repro.analysis.diagnostics.AnalysisPass`
passes run by the shared driver: :func:`certify_spec` over model specs
(rules TRV001–TRV003/TRV007–TRV008, suppressed through
``spec.lint_allow`` / ``edge.lint_allow``) and :func:`certify_isa` over
ISA targets (rules TRV004–TRV006, suppressed through ``target.allow``).

:func:`certify_fused_states` is the *build-time gate*: called by
:func:`repro.core.fuse.enable_fusion` after fusing, it replays every
installed stepper (the TRV001 check) and returns the states whose
generated code failed validation, so the model demotes them back to the
per-edge plan before the first cycle runs.  It deliberately touches
nothing beyond the replayer — no audit targets, no ISS drivers — to
stay cheap on the model-construction path.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..diagnostics import (AnalysisPass, Diagnostic, Report, Severity,
                           allow_lookup, run_passes, spec_allow)
from .fingerprint import generator_fingerprint
from .replay import replay_probe, replay_stepper

__all__ = [
    "ISA_CODES",
    "SPEC_CODES",
    "IsaCertifyContext",
    "SpecCertifyContext",
    "certify_fused_states",
    "certify_isa",
    "certify_spec",
    "default_isa_passes",
    "default_spec_passes",
]

#: rule codes that run per model spec / per ISA target
SPEC_CODES = ("TRV001", "TRV002", "TRV003", "TRV007", "TRV008")
ISA_CODES = ("TRV004", "TRV005", "TRV006")

#: cap on repeated findings per (pass, anchor): keeps a systematically
#: broken generator from producing thousands of identical diagnostics
MAX_PER_ANCHOR = 4


# -- contexts ----------------------------------------------------------------

class SpecCertifyContext:
    """Per-run shared facts for the spec-side rules."""

    def __init__(self, spec):
        self.spec = spec
        self.subject = spec.name
        self._ident_sites = None
        self._compilability = None
        # force every probe plan so the compile census and the compiled
        # probes exist regardless of what the model ran before
        for state in spec.states.values():
            state.probe_plan()

    @property
    def ident_sites(self):
        """Harvested dynamic-ident callables (effects engine harvest)."""
        if self._ident_sites is None:
            from ..effects.engine import harvest_spec
            self._ident_sites = [
                site for site in harvest_spec(self.spec) if site.role == "ident"
            ]
        return self._ident_sites

    @property
    def compilability(self):
        """The effectcheck compilability verdict for this spec."""
        if self._compilability is None:
            from ..effects import compilability_report, effects_spec
            report = effects_spec(self.spec)
            self._compilability = compilability_report(self.spec, report)
        return self._compilability

    def fused(self):
        """``(state, stepper)`` for every state with an installed stepper."""
        for state in self.spec.states.values():
            fn = getattr(state, "_fused", None)
            if fn is not None:
                yield state, fn


class IsaCertifyContext:
    """Per-run shared facts for the ISA-side rules: the audit lattice
    runs (reference semantics traffic) and the compiling-ISS driver."""

    def __init__(self, target):
        self.target = target
        self.subject = target.name
        self._audit = None
        self._iss = None
        self._iss_built = False

    @property
    def runs(self):
        """``class name -> [PointRun]`` from the audit harness."""
        if self._audit is None:
            from ..audit.engine import AuditContext
            self._audit = AuditContext(self.target)
        return self._audit.runs

    @property
    def iss(self):
        """The ISS after running the bundled driver program (the
        compiling ISS on ARM, the specialised interpreter on PPC), or
        None for targets without one (e.g. toy test targets)."""
        if not self._iss_built:
            from .isachecks import run_arm_driver, run_ppc_driver
            if self.target.name == "arm":
                self._iss = run_arm_driver()
            elif self.target.name == "ppc":
                self._iss = run_ppc_driver()
            self._iss_built = True
        return self._iss


# -- spec-side rules ---------------------------------------------------------

class Trv001FusedReplay(AnalysisPass):
    """Replay each fused stepper's source against the per-edge plan."""

    code = "TRV001"
    rule = "fused-stepper-replay"

    def run(self, ctx) -> Iterator[Diagnostic]:
        for state, fn in ctx.fused():
            if getattr(fn, "__fused_source__", None) is None:
                yield self.diag(
                    ctx,
                    f"fused stepper for state {state.name!r} carries no "
                    "__fused_source__ hook; generated code cannot be "
                    "validated",
                    state=state.name,
                )
                continue
            for problem in replay_stepper(state, ctx.spec)[:MAX_PER_ANCHOR]:
                yield self.diag(
                    ctx,
                    f"fused stepper diverges from the edge plan: {problem}",
                    state=state.name,
                )


class Trv002InlineContract(AnalysisPass):
    """``__fuse_inline__`` declarations must match the tagged callable."""

    code = "TRV002"
    rule = "inline-ident-contract"

    def run(self, ctx) -> Iterator[Diagnostic]:
        from ...core.fuse import safe_inline_expr
        from ..effects.engine import PROBE_DEPTH
        from ..effects.footprint import analyze_callable

        for site in ctx.ident_sites:
            inline = getattr(site.fn, "__fuse_inline__", None)
            if inline is None:
                continue
            if not safe_inline_expr(inline):
                yield self.diag(
                    ctx,
                    f"{site.name}: __fuse_inline__ declaration "
                    f"{inline!r} is not a safe expression; the fuser "
                    "demotes the site to a dynamic call",
                    severity=Severity.WARNING,
                    edge=site.edge,
                )
                continue
            footprint = analyze_callable(
                site.fn, site.param_roles, depth=PROBE_DEPTH)
            if not footprint.pure:
                yield self.diag(
                    ctx,
                    f"{site.name}: callable tagged __fuse_inline__ is "
                    "impure (writes: "
                    f"{sorted(footprint.writes) or footprint.reason}); "
                    "the pasted expression cannot reproduce its effects",
                    edge=site.edge,
                )
            body = _single_return_expr(site.fn)
            if body is None:
                yield self.diag(
                    ctx,
                    f"{site.name}: inline contract unverifiable — the "
                    "tagged callable is not a single-return function",
                    severity=Severity.WARNING,
                    edge=site.edge,
                )
            elif body != _normalized_expr_dump(inline, "osm"):
                yield self.diag(
                    ctx,
                    f"{site.name}: __fuse_inline__ expression {inline!r} "
                    "diverges from the tagged callable's body",
                    edge=site.edge,
                )


class Trv003ProbeReplay(AnalysisPass):
    """Replay each compiled edge probe against the primitive sequence."""

    code = "TRV003"
    rule = "edge-probe-replay"

    def run(self, ctx) -> Iterator[Diagnostic]:
        from ...core.edgecompile import compile_edge_probe

        for edge in ctx.spec.edges:
            if getattr(edge, "compile_mode", "auto") == "interpreted":
                continue  # pinned to the interpreted fallback: no artifact
            probe = compile_edge_probe(edge)
            if getattr(probe, "__probe_source__", None) is None:
                continue  # interpreted fallback closure: no artifact
            for problem in replay_probe(edge, probe)[:MAX_PER_ANCHOR]:
                yield self.diag(
                    ctx,
                    f"compiled probe diverges from the primitive plan: "
                    f"{problem}",
                    edge=edge,
                )


class Trv007FallbackConsistency(AnalysisPass):
    """Installed steppers, the effectcheck verdict and the compile
    census must tell the same story."""

    code = "TRV007"
    rule = "fallback-consistency"

    def run(self, ctx) -> Iterator[Diagnostic]:
        fusable = set(ctx.compilability.fusable_states)
        for state, _fn in ctx.fused():
            if state.name not in fusable:
                yield self.diag(
                    ctx,
                    f"state {state.name!r} runs a fused stepper but "
                    "effectcheck deems it unfusable",
                    state=state.name,
                )
        stats = getattr(ctx.spec, "compile_stats", None)
        if stats is None:
            return
        for name, reason in sorted(stats.states.items()):
            state = ctx.spec.states.get(name)
            if state is None:
                continue
            fused = getattr(state, "_fused", None) is not None
            if reason is None and not fused:
                yield self.diag(
                    ctx,
                    f"compile census counts state {name!r} as fused but "
                    "no stepper is installed",
                    state=name,
                )
            elif reason is not None and fused:
                yield self.diag(
                    ctx,
                    f"compile census counts state {name!r} as a fallback "
                    f"({reason}) but a fused stepper is installed",
                    state=name,
                )


class Trv008GeneratorDrift(AnalysisPass):
    """Fuse certificates must match the current generators and steppers."""

    code = "TRV008"
    rule = "generator-drift"

    def run(self, ctx) -> Iterator[Diagnostic]:
        actual = sorted(state.name for state, _fn in ctx.fused())
        certificate = getattr(ctx.spec, "fuse_certificate", None)
        if certificate is None:
            if actual:
                yield self.diag(
                    ctx,
                    f"states {actual} run fused steppers but the spec "
                    "carries no fuse certificate",
                )
            return
        fingerprint = generator_fingerprint()
        if certificate.get("generator") != fingerprint:
            yield self.diag(
                ctx,
                "stale fuse certificate: the code generators changed "
                f"since it was stamped (certificate "
                f"{str(certificate.get('generator'))[:12]}…, current "
                f"{fingerprint[:12]}…)",
            )
        stamped = sorted(certificate.get("fused_states") or [])
        if stamped != actual:
            yield self.diag(
                ctx,
                f"fuse certificate covers states {stamped} but states "
                f"{actual} run fused steppers",
            )


# -- ISA-side rules ----------------------------------------------------------

class Trv004ExecgenWriteSet(AnalysisPass):
    """Generated executors must cover the reference semantics' writes.

    For every audit lattice point the reference semantics executed, the
    static may-write set of the execgen translation must contain every
    architectural write the reference performed (registers, flags,
    SPRs, memory).  *translate* is injectable for the mutation tests.
    """

    code = "TRV004"
    rule = "execgen-write-set"

    def __init__(self, translate=None):
        self._translate = translate

    def _translator(self, target):
        if self._translate is not None:
            return self._translate
        if target.name == "arm":
            from ...isa.arm.execgen import _translate
            return _translate
        if target.name == "ppc":
            from ...isa.ppc.execgen import _translate
            return _translate
        return None

    def run(self, ctx) -> Iterator[Diagnostic]:
        from .isachecks import static_writes

        translate = self._translator(ctx.target)
        if translate is None:
            return
        flag_nums = dict(ctx.target.flag_regs)
        spr_nums = dict(ctx.target.spr_regs)
        reported = {}
        for cls_name, runs in sorted(ctx.runs.items()):
            for run in runs:
                if run.udf or run.error is not None:
                    continue
                source = translate(run.instr, "_exec")
                if source is None:
                    continue  # interpreted fallback: no artifact
                static = static_writes(source)
                if static.syscall:
                    continue  # syscall side effects are out of scope
                covered = set(static.regs)
                covered.update(flag_nums[f] for f in static.flags
                               if f in flag_nums)
                covered.update(spr_nums[s] for s in static.sprs
                               if s in spr_nums)
                missing = [] if -1 in covered else sorted(
                    run.writes - covered)
                if missing and reported.setdefault(
                        (cls_name, tuple(missing)), 0) < MAX_PER_ANCHOR:
                    reported[(cls_name, tuple(missing))] += 1
                    yield self.diag(
                        ctx,
                        f"{run.label}: reference semantics wrote hazard "
                        f"register(s) {missing} the generated executor "
                        "never writes",
                        state=cls_name,
                    )
                if run.state.memory.stores and not static.mem:
                    key = (cls_name, "mem")
                    if reported.setdefault(key, 0) < MAX_PER_ANCHOR:
                        reported[key] += 1
                        yield self.diag(
                            ctx,
                            f"{run.label}: reference semantics stored to "
                            "memory but the generated executor performs "
                            "no memory write",
                            state=cls_name,
                        )


class Trv005BlockStoreGuards(AnalysisPass):
    """Compiled ARM blocks must guard every store with ``_b.valid``.

    Only the ARM target translates whole blocks to source; the PPC ISS
    runs the per-instruction execgen executors and emits no block source
    (documented exemption in docs/static-analysis.md).  *interpreter*
    and *mutate* are injectable for the mutation tests.
    """

    code = "TRV005"
    rule = "block-store-guards"

    def __init__(self, interpreter=None, mutate=None):
        self._interpreter = interpreter
        self._mutate = mutate

    def run(self, ctx) -> Iterator[Diagnostic]:
        from .isachecks import check_store_guards

        interpreter = self._interpreter
        if interpreter is None:
            if ctx.target.name != "arm":
                return
            interpreter = ctx.iss
        if interpreter is None:
            return
        saw_store = False
        for entry, block in sorted(interpreter.decode_cache.blocks.items()):
            source = getattr(block.compiled, "__block_source__", None)
            if source is None:
                yield self.diag(
                    ctx,
                    f"compiled block {entry:#x} carries no "
                    "__block_source__ hook; generated code cannot be "
                    "validated",
                )
                continue
            if self._mutate is not None:
                source = self._mutate(source)
            if "write_" in source:
                saw_store = True
            for problem in check_store_guards(source)[:MAX_PER_ANCHOR]:
                yield self.diag(ctx, f"block {entry:#x}: {problem}")
        if not saw_store:
            yield self.diag(
                ctx,
                "driver program compiled no store-bearing block; the "
                "store-guard check ran vacuously",
                severity=Severity.WARNING,
            )


class Trv006PageMapCoverage(AnalysisPass):
    """Every live block must be indexed under every page it spans."""

    code = "TRV006"
    rule = "page-map-coverage"

    def __init__(self, decode_cache=None):
        self._decode_cache = decode_cache

    def run(self, ctx) -> Iterator[Diagnostic]:
        from .isachecks import check_page_map

        cache = self._decode_cache
        if cache is None:
            interpreter = ctx.iss
            if interpreter is None:
                return
            cache = interpreter.decode_cache
        for problem in check_page_map(cache):
            yield self.diag(ctx, problem)


# -- TRV002 helpers ----------------------------------------------------------

def _single_return_expr(fn) -> Optional[str]:
    """The normalized ``ast.dump`` of *fn*'s body when it is a single
    ``return <expr>`` (or a lambda), with its first parameter renamed to
    ``osm``; None otherwise."""
    import ast
    import inspect
    import textwrap

    try:
        source = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError, ValueError):
        return None
    node = None
    for candidate in ast.walk(tree):
        if isinstance(candidate, (ast.FunctionDef, ast.Lambda)):
            node = candidate
            break
    if node is None or not node.args.args:
        return None
    param = node.args.args[0].arg
    if isinstance(node, ast.Lambda):
        expr = node.body
    else:
        if len(node.body) != 1 or not isinstance(node.body[0], ast.Return) \
                or node.body[0].value is None:
            return None
        expr = node.body[0].value
    return _normalized_expr_dump(ast.unparse(expr), param)


def _normalized_expr_dump(expr: str, param: str) -> Optional[str]:
    """``ast.dump`` of *expr* with the name *param* rewritten to ``osm``."""
    import ast

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        return None
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == param:
            node.id = "osm"
    return ast.dump(tree)


# -- drivers -----------------------------------------------------------------

def default_spec_passes() -> List[AnalysisPass]:
    """Fresh instances of the per-spec rules, in code order."""
    return [
        Trv001FusedReplay(),
        Trv002InlineContract(),
        Trv003ProbeReplay(),
        Trv007FallbackConsistency(),
        Trv008GeneratorDrift(),
    ]


def default_isa_passes() -> List[AnalysisPass]:
    """Fresh instances of the per-ISA rules, in code order."""
    return [
        Trv004ExecgenWriteSet(),
        Trv005BlockStoreGuards(),
        Trv006PageMapCoverage(),
    ]


def certify_spec(
    spec,
    passes: Optional[Sequence[AnalysisPass]] = None,
    codes: Optional[Iterable[str]] = None,
) -> Report:
    """Run the spec-side transcheck rules over *spec*.

    Suppression reuses the lint allow channel: a ``TRV`` code named in
    ``edge.lint_allow`` or ``spec.lint_allow`` marks the finding as an
    audited suppression (kept in the report, excluded from the
    pass/fail verdict).
    """
    if passes is None:
        passes = default_spec_passes()
    return run_passes("certify", SpecCertifyContext(spec), passes, codes,
                      spec_allow(spec))


def certify_isa(
    target,
    passes: Optional[Sequence[AnalysisPass]] = None,
    codes: Optional[Iterable[str]] = None,
) -> Report:
    """Run the ISA-side transcheck rules over an audit target (by name
    or as an :class:`~repro.analysis.audit.targets.AuditTarget`)."""
    if isinstance(target, str):
        from ..audit.targets import build_target
        target = build_target(target)
    if passes is None:
        passes = default_isa_passes()
    return run_passes("certify", IsaCertifyContext(target), passes, codes,
                      allow_lookup(target.allow))


# -- build-time gate ---------------------------------------------------------

def certify_fused_states(spec) -> List[Tuple[str, str]]:
    """Replay every installed fused stepper; returns ``(state name,
    reason)`` for each one that fails translation validation.

    The fast path of ``repro certify`` rule TRV001, packaged for
    :func:`repro.core.fuse.enable_fusion`: the caller demotes the named
    states via ``apply_compilability`` before the model runs a cycle.
    """
    failures: List[Tuple[str, str]] = []
    for state in spec.states.values():
        fn = getattr(state, "_fused", None)
        if fn is None:
            continue
        if getattr(fn, "__fused_source__", None) is None:
            failures.append((state.name, "no __fused_source__ hook"))
            continue
        problems = replay_stepper(state, spec)
        if problems:
            failures.append((state.name, problems[0]))
    return failures
