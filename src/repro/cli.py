"""Command-line interface: ``python -m repro <command>``.

Gives the framework a downstream-usable front end:

* ``run``      — assemble a program and run it on a model or ISS,
                 optionally with a pipeline trace
* ``asm``      — assemble to a hex/word listing
* ``analyze``  — umbrella: every analysis tool over model specs and
                 their ISAs, with one merged JSON report for CI
* ``lint``, ``check``, ``effects``, ``audit``, ``certify``, ``adlcheck``
               — the analysis front ends (osmlint, osmcheck, effectcheck,
                 isaaudit, transcheck, adlcheck), one row each of
                 :data:`ANALYSIS_TOOLS`; nonzero exit on an unsuppressed
                 error finding (rule tables in docs/static-analysis.md)
* ``bench``    — quick cycles-per-second measurement of a model
* ``serve``, ``submit``, ``fleet-bench`` — the fleet job server, its
                 client, and the end-to-end fleet bench
* ``workload`` — emit a bundled workload's assembly source

Examples::

    python -m repro run --model strongarm examples/sum.s
    python -m repro run --model ppc750 --isa ppc --trace prog.s
    python -m repro asm --isa arm prog.s
    python -m repro analyze all --json
    python -m repro lint strongarm ppc750
    python -m repro lint all --json
    python -m repro check pipeline5 --n-osms 3
    python -m repro check all --json
    python -m repro audit arm ppc
    python -m repro audit all --json
    python -m repro effects ppc750
    python -m repro effects all --json
    python -m repro certify arm strongarm
    python -m repro certify all --json
    python -m repro adlcheck adl-pipeline5
    python -m repro adlcheck mydesc.adl --json
    python -m repro adlcheck all --rules ADL001,ADL010
    python -m repro workload gsm_dec --isa ppc
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


def _assemble(isa: str, source: str):
    if isa == "arm":
        from .isa.arm import assemble
    elif isa == "ppc":
        from .isa.ppc import assemble
    else:
        raise SystemExit(f"unknown ISA {isa!r} (choose arm or ppc)")
    return assemble(source)


def _build_model(name: str, program, isa: str, fused: bool = True):
    if name == "iss":
        from .iss import ArmInterpreter, PpcInterpreter

        return (ArmInterpreter if isa == "arm" else PpcInterpreter)(program)
    if name == "pipeline5":
        from .models.pipeline5 import Pipeline5Model

        _require_isa(name, isa, "arm")
        return Pipeline5Model(program, fused=fused)
    if name == "strongarm":
        from .models.strongarm import StrongArmModel

        _require_isa(name, isa, "arm")
        return StrongArmModel(program, fused=fused)
    if name == "vliw":
        from .models.vliw import VliwModel

        _require_isa(name, isa, "arm")
        model = VliwModel(program)
        if not fused:
            from .core import defuse_spec

            defuse_spec(model.spec)
        return model
    if name == "ppc750":
        from .models.ppc750 import Ppc750Model

        _require_isa(name, isa, "ppc")
        return Ppc750Model(program, fused=fused)
    raise SystemExit(
        f"unknown model {name!r} (choose iss, pipeline5, strongarm, vliw, ppc750)"
    )


def _require_isa(model: str, isa: str, expected: str) -> None:
    if isa != expected:
        raise SystemExit(f"model {model!r} targets the {expected} ISA, not {isa!r}")


MODEL_DEFAULT_ISA = {
    "iss": "arm",
    "pipeline5": "arm",
    "strongarm": "arm",
    "vliw": "arm",
    "ppc750": "ppc",
}


def cmd_run(args) -> int:
    import json

    from . import codecache
    from .iss import translations

    source = _read_source(args.file)
    isa = args.isa or MODEL_DEFAULT_ISA.get(args.model, "arm")
    program = _assemble(isa, source)
    code = {"hits": 0, "misses": 0}
    translated = dict(code)
    code_before = codecache.stats()
    translated_before = translations.stats()
    model = _build_model(args.model, program, isa)

    if args.model == "iss":
        exit_code = model.run(args.max_cycles)
        output = model.syscalls.output_text
        if args.json:
            _add_counts(code, code_before, codecache.stats())
            _add_counts(translated, translated_before, translations.stats())
            cache = model.decode_cache
            print(json.dumps({"model": "iss", "exit_code": exit_code,
                              "instructions": model.steps,
                              "decode_cache": {
                                  "blocks_built": cache.block_misses,
                                  "block_reentries": cache.block_hits,
                                  "block_invalidations": cache.block_invalidations,
                              },
                              "code_cache": code,
                              "translation_cache": translated,
                              "output": output}, indent=2))
            return 0
        print(f"exit={exit_code} instructions={model.steps}")
        if output:
            print(f"output: {output!r}")
        return 0

    tracer = None
    if args.trace:
        from .reporting.pipeview import PipelineTracer

        tracer = PipelineTracer(model)
    stats = model.run(args.max_cycles)
    output = getattr(model, "output_text", "")
    if args.json:
        _add_counts(code, code_before, codecache.stats())
        _add_counts(translated, translated_before, translations.stats())
        certificate = getattr(model.spec, "fuse_certificate", None)
        print(json.dumps({
            "model": args.model,
            "exit_code": model.exit_code,
            "cycles": stats.cycles,
            "instructions": stats.instructions,
            "ipc": round(stats.ipc, 6),
            "transitions": stats.transitions,
            "probes": stats.control_step_passes,
            "parked_skips": stats.parked_skips,
            "wake_calls": stats.wake_calls,
            "failed_probes_per_commit": _failed_probes_per_commit(stats),
            "generated_calls_per_commit": _generated_calls_per_commit(stats),
            "fusion": None if certificate is None else {
                key: certificate[key]
                for key in ("verdict", "plan", "stored", "kept_out_by",
                            "fused_states", "parked_states", "sleeping_states")},
            "code_cache": code,
            "translation_cache": translated,
            "output": output,
        }, indent=2))
        return 0
    print(f"exit={model.exit_code} cycles={stats.cycles} "
          f"instructions={stats.instructions} IPC={stats.ipc:.3f}")
    if output:
        print(f"output: {output!r}")
    if tracer is not None:
        print()
        print(tracer.render(count=args.trace_ops))
    return 0


def cmd_asm(args) -> int:
    source = _read_source(args.file)
    program = _assemble(args.isa, source)
    if args.isa == "arm":
        from .isa.arm import decode
    else:
        from .isa.ppc import decode
    print(f"entry: {program.entry:#x}")
    for address, word in program.text_words():
        text = decode(address, word).text
        print(f"{address:#10x}: {word:08x}  {text}")
    data = program.data
    if data is not None and data.size:
        print(f".data at {data.base:#x}, {data.size} bytes")
    return 0


# -- analysis front ends -----------------------------------------------------

def _lazy(path: str):
    """The object at ``.module:name`` (relative to this package),
    imported on first use so CLI start-up imports no analysis code."""
    from importlib import import_module

    module, _, name = path.partition(":")
    return getattr(import_module(module, __package__), name)


class SubjectKind(NamedTuple):
    """What an analysis subject name can denote."""

    #: ``module:function`` listing the registered names of this kind
    registry: str
    #: noun for error messages
    noun: str
    #: help text of the subject argument
    help: str


SUBJECT_KINDS = {
    "isa": SubjectKind(".analysis.audit.targets:available_targets", "ISA target",
                       "ISA target (arm, ppc)"),
    "spec": SubjectKind(".analysis.registry:available_specs", "spec",
                        "registered model spec name"),
    "adl": SubjectKind(".analysis.adl:available_descriptions", "description",
                       "registered description name (adl-*), ADL file path"),
}


class AnalysisTool(NamedTuple):
    """One analysis front end, as its subcommand and ``analyze`` see it."""

    name: str
    #: rule-code prefix ("OSM" for OSM001…)
    prefix: str
    #: subject kind -> ``module:factory`` of the rules run on that kind
    rules: Dict[str, str]
    #: JSON payload key of the per-subject reports
    key: str
    #: ``run(kind, name, codes, args) -> report``
    run: Callable
    help: str
    #: option strings of the rule-code filter
    filter_flags: Tuple[str, ...] = ("--rules",)
    #: tool-specific ``(option strings, add_argument kwargs)`` pairs
    flags: Tuple = ()

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(self.rules)

    def rule_codes(self, kind: str) -> List[str]:
        return [rule.code for rule in _lazy(self.rules[kind])()]


def _lint(kind, name, codes, args):
    from .analysis.lint import lint_spec
    from .analysis.registry import build_spec

    return lint_spec(build_spec(name), codes=codes)


def _check(kind, name, codes, args):
    from .analysis.check import check_model

    return check_model(name, n_osms=args.n_osms, codes=codes,
                       reduction=not args.naive, max_states=args.max_states)


def _effects(kind, name, codes, args):
    from .analysis.effects import compilability_report, effects_spec
    from .analysis.registry import build_spec

    spec = build_spec(name)
    report = effects_spec(spec, codes=codes)
    report.sections["compilability"] = compilability_report(spec, report)
    return report


def _audit(kind, name, codes, args):
    from .analysis.audit import audit_isa, audit_model

    return (audit_isa if kind == "isa" else audit_model)(name, codes=codes)


def _certify(kind, name, codes, args):
    from .analysis.certify import certify_isa, certify_spec
    from .analysis.registry import build_spec

    if kind == "isa":
        return certify_isa(name, codes=codes)
    return certify_spec(build_spec(name), codes=codes)


def _adlcheck(kind, name, codes, args):
    from .analysis.adl import adlcheck_source, available_descriptions, description_source

    text = (description_source(name) if name in available_descriptions()
            else _read_source(name))
    try:
        return adlcheck_source(text, unit=name, codes=codes,
                               synth_closure=not args.no_closure)
    except ValueError as exc:  # --rules ADL010 with --no-closure
        raise SystemExit(str(exc))


_SHOW_SUPPRESSED = (("--show-suppressed",), dict(
    action="store_true", help="include suppressed findings in text output"))

#: the six analysis front ends, in ``analyze`` report order; each row
#: generates its subcommand, and ``analyze`` runs every row on each
#: subject of a kind the row takes
ANALYSIS_TOOLS = (
    AnalysisTool(
        "lint", "OSM", {"spec": ".analysis.lint.engine:default_passes"},
        "models", _lint,
        "static analysis (osmlint) of model specifications",
        flags=(_SHOW_SUPPRESSED,),
    ),
    AnalysisTool(
        "check", "CHK", {"spec": ".analysis.check.properties:default_properties"},
        "models", _check,
        "explicit-state model checking (osmcheck) of model specifications",
        filter_flags=("--properties",),
        flags=(
            (("--n-osms",), dict(
                type=int, default=2, metavar="N",
                help="number of concurrent OSM instances to compose (default 2)")),
            (("--naive",), dict(
                action="store_true",
                help="disable symmetry + partial-order reduction (full interleaving)")),
            (("--max-states",), dict(
                type=int, default=200_000, metavar="N",
                help="state-count bound before the search is truncated")),
        ),
    ),
    AnalysisTool(
        "effects", "EFF", {"spec": ".analysis.effects.engine:default_passes"},
        "models", _effects,
        "static effect/purity analysis (effectcheck) of model specifications",
        flags=(_SHOW_SUPPRESSED,),
    ),
    AnalysisTool(
        "audit", "ISA", {"isa": ".analysis.audit.engine:default_passes",
                         "spec": ".analysis.audit.routing:default_passes"},
        "subjects", _audit,
        "cross-layer ISA/model consistency audit (isaaudit)",
        filter_flags=("--rules", "--codes"), flags=(_SHOW_SUPPRESSED,),
    ),
    AnalysisTool(
        "certify", "TRV", {"isa": ".analysis.certify.engine:default_isa_passes",
                           "spec": ".analysis.certify.engine:default_spec_passes"},
        "subjects", _certify,
        "translation validation (transcheck) of generated fast-path code",
        filter_flags=("--rules", "--codes"), flags=(_SHOW_SUPPRESSED,),
    ),
    AnalysisTool(
        "adlcheck", "ADL", {"adl": ".analysis.adl.engine:default_passes"},
        "descriptions", _adlcheck,
        "source-level semantic analysis (adlcheck) of ADL descriptions",
        filter_flags=("--rules", "--codes"),
        flags=(
            (("--no-closure",), dict(
                action="store_true",
                help="skip the ADL010 synthesis-closure pass (source-level rules only)")),
            _SHOW_SUPPRESSED,
        ),
    ),
)


def _resolve(kinds, names) -> List[Tuple[str, str]]:
    """``(kind, name)`` for each subject name; ``all`` stands for every
    registered subject of *kinds*, in kind order.  A name that is not
    registered may be an ADL file path where *kinds* include ``adl``."""
    import os

    registered = {kind: _lazy(SUBJECT_KINDS[kind].registry)() for kind in kinds}
    if "all" in names:
        return [(kind, name) for kind, known in registered.items() for name in known]
    resolved = []
    for name in names:
        matches = [kind for kind, known in registered.items() if name in known]
        if not matches and "adl" in kinds and os.path.exists(name):
            matches = ["adl"]
        if not matches:
            noun = " or ".join(SUBJECT_KINDS[kind].noun for kind in kinds)
            available = ", ".join(n for known in registered.values() for n in known)
            raise SystemExit(f"unknown {noun} {name!r}; available: {available}")
        resolved.append((matches[0], name))
    return resolved


def _parse_codes(tool: AnalysisTool, text: Optional[str]):
    """The rule filter as a code set, or None to run every rule; a filter
    naming no code, or a code the tool does not have, is a usage error."""
    if text is None:
        return None
    codes = {code.strip() for code in text.split(",")} - {""}
    if not codes:
        raise SystemExit(f"{tool.name}: rule filter {text!r} names no rule code")
    known = {code for kind in tool.kinds for code in tool.rule_codes(kind)}
    if codes - known:
        raise SystemExit(f"unknown {tool.name} rule code(s): {sorted(codes - known)}")
    return codes


def _run_tool(tool: AnalysisTool, kind: str, name: str, codes, args):
    """*tool*'s report on one subject, keyed by the subject name (a
    registered spec's ``spec.name`` may differ)."""
    if codes is not None:
        codes = sorted(codes & set(tool.rule_codes(kind)))
    report = tool.run(kind, name, codes, args)
    report.spec = name
    return report


def _print_payload(tool: str, ok: bool, **sections) -> None:
    import json

    from .analysis.diagnostics import SCHEMA_VERSION

    print(json.dumps({"tool": tool, "schema_version": SCHEMA_VERSION, "ok": ok,
                      **sections}, indent=2))


def cmd_tool(tool: AnalysisTool, args) -> int:
    """One analysis front end over its subjects; exit 1 on any
    unsuppressed error-severity finding (or violated property)."""
    codes = _parse_codes(tool, args.rules)
    reports = [(name, _run_tool(tool, kind, name, codes, args))
               for kind, name in _resolve(tool.kinds, args.subjects)]
    ok = all(report.ok for _, report in reports)
    if args.json:
        _print_payload(tool.name, ok, **{
            tool.key: {name: report.to_dict() for name, report in reports}})
    else:
        for _, report in reports:
            print(report.render_text(show_suppressed=args.show_suppressed))
    return 0 if ok else 1


def cmd_analyze(args) -> int:
    """Umbrella: every analysis tool over the named model specs (plus the
    ADL tools for specs synthesized from a registered description) and
    the ISAs they consume; exit 1 if any tool reports a failure.  JSON
    mode emits one merged report, a section per tool per subject."""
    from .analysis.adl import available_descriptions
    from .analysis.registry import spec_isa

    names = [name for _, name in _resolve(("spec",), args.subjects)]
    subjects = [("models", name, ("spec", "adl") if name in available_descriptions()
                 else ("spec",)) for name in names]
    subjects += [("isas", isa, ("isa",))
                 for isa in dict.fromkeys(spec_isa(name) for name in names)]
    payload = {"models": {}, "isas": {}}
    ok = True
    for key, name, kinds in subjects:
        if not args.json:
            print(f"== {name} ==" if key == "models" else f"== {name} (ISA) ==")
        section = payload[key][name] = {}
        for kind in kinds:
            for tool in ANALYSIS_TOOLS:
                if kind in tool.rules:
                    report = _run_tool(tool, kind, name, None, args)
                    ok = ok and report.ok
                    section[tool.name] = report.to_dict()
                    if not args.json:
                        print(report.render_text(show_suppressed=args.show_suppressed))
    if args.json:
        _print_payload("analyze", ok, **payload)
    elif ok:
        print("analyze: all tools clean")
    return 0 if ok else 1


#: models benched by ``bench --model cases`` (one per bundled ISA)
BENCH_CASE_MODELS = ("strongarm", "ppc750")


def _model_decode_cache(model):
    """The model's ISS-level :class:`~repro.iss.decode_cache.DecodeCache`,
    whether it fetches directly (``model.iss``) or through an oracle."""
    iss = getattr(model, "iss", None)
    if iss is None:
        oracle = getattr(model, "oracle", None)
        iss = getattr(oracle, "interpreter", None)
    return getattr(iss, "decode_cache", None)


def _bench_model(model_name: str, args, fused: bool) -> dict:
    """One bench row: run every workload on *model_name*, aggregate.

    The timed simulate runs happen with the cyclic garbage collector
    paused (collected right before, re-enabled right after): the
    simulator allocates at a steady rate and GC passes mid-measurement
    only add variance.  Results are unaffected — collection has no
    semantic effect.
    """
    import gc

    from . import codecache
    from .core.fuse import plan_stats
    from .core.stats import SimulationStats
    from .iss import translations
    from .workloads import mediabench

    isa = args.isa or MODEL_DEFAULT_ISA.get(model_name, "arm")
    names = list(mediabench.MEDIABENCH_NAMES)
    if args.quick:
        names = names[:3]
    agg = SimulationStats()
    source_of = mediabench.arm_source if isa == "arm" else mediabench.ppc_source
    per_workload = []
    mismatches = []
    compile_stats = None
    verdict = None
    cache_counts = {"block_hits": 0, "block_misses": 0,
                    "entry_invalidations": 0, "block_invalidations": 0}
    # process code-cache, translation-cache and build-plan counter
    # deltas: the timed builds and runs, and the verify re-runs, which
    # repeat a program this process just ran
    timed_code = {"hits": 0, "misses": 0}
    verify_code = dict(timed_code)
    timed_translations = dict(timed_code)
    verify_translations = dict(timed_code)
    timed_plans = {"reused": 0, "generated": 0}
    verify_plans = dict(timed_plans)
    for name in names:
        with agg.time_phase("assemble"):
            program = _assemble(isa, source_of(name))
        code_before = codecache.stats()
        translated_before = translations.stats()
        plans_before = plan_stats()
        with agg.time_phase("build"):
            model = _build_model(model_name, program, isa, fused=fused)
        _add_counts(timed_plans, plans_before, plan_stats())
        if compile_stats is None:
            # the row's first build is the one that can pay the fusion gate
            certificate = getattr(model.spec, "fuse_certificate", None)
            verdict = (certificate or {}).get("verdict")
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            stats = model.run(args.max_cycles)
        finally:
            if gc_was_enabled:
                gc.enable()
        _add_counts(timed_code, code_before, codecache.stats())
        _add_counts(timed_translations, translated_before, translations.stats())
        compile_stats = model.spec.compile_stats
        cache = _model_decode_cache(model)
        if cache is not None:
            cache_counts["block_hits"] += cache.block_hits
            cache_counts["block_misses"] += cache.block_misses
            cache_counts["entry_invalidations"] += cache.invalidations
            cache_counts["block_invalidations"] += cache.block_invalidations
        result = {
            "cycles": stats.cycles,
            "instructions": stats.instructions,
            "transitions": stats.transitions,
            "exit_code": model.exit_code,
        }
        per_workload.append({"workload": name, **result})
        agg.cycles += stats.cycles
        agg.instructions += stats.instructions
        agg.transitions += stats.transitions
        agg.control_step_passes += stats.control_step_passes
        agg.parked_skips += stats.parked_skips
        agg.wake_calls += stats.wake_calls
        agg.wall_seconds += stats.wall_seconds
        agg.record_phase("simulate", stats.phase_seconds.get("simulate", 0.0))
        if not args.no_verify:
            # re-run under the reference scheduling loop: the fast path
            # must be result-identical, not merely faster
            with agg.time_phase("verify"):
                code_before = codecache.stats()
                translated_before = translations.stats()
                plans_before = plan_stats()
                with agg.time_phase("build"):
                    ref_model = _build_model(model_name, program, isa, fused=fused)
                _add_counts(verify_plans, plans_before, plan_stats())
                ref_model.director.reference = True
                ref_stats = ref_model.run(args.max_cycles)
                _add_counts(verify_code, code_before, codecache.stats())
                _add_counts(verify_translations, translated_before,
                            translations.stats())
            reference = {
                "cycles": ref_stats.cycles,
                "instructions": ref_stats.instructions,
                "transitions": ref_stats.transitions,
                "exit_code": ref_model.exit_code,
            }
            if reference != result:
                mismatches.append(
                    {"workload": name, "fast": result, "reference": reference}
                )
    lookups = cache_counts["block_hits"] + cache_counts["block_misses"]
    block_hit_rate = (
        round(cache_counts["block_hits"] / lookups, 4) if lookups else None
    )
    return {
        "bench": "speed",
        "model": model_name,
        "isa": isa,
        "quick": bool(args.quick),
        "fused": fused,
        "workloads": per_workload,
        "cycles": agg.cycles,
        "instructions": agg.instructions,
        "transitions": agg.transitions,
        "wall_seconds": round(agg.wall_seconds, 4),
        "cycles_per_second": round(agg.cycles_per_second, 1),
        "events_per_second": round(agg.transitions_per_second, 1),
        # exact work counters of the fast path (not of the verify runs);
        # row-level, as the unfused rows count differently
        "probes": agg.control_step_passes,
        "parked_skips": agg.parked_skips,
        "wake_calls": agg.wake_calls,
        "failed_probes_per_commit": _failed_probes_per_commit(agg),
        "generated_calls_per_commit": _generated_calls_per_commit(agg),
        "phase_seconds": {
            name: round(seconds, 4) for name, seconds in agg.phase_seconds.items()
        },
        "verified": (not args.no_verify) and not mismatches,
        "mismatches": mismatches,
        "fused_states": compile_stats.fused_states if compile_stats else 0,
        "fused_fallback_states": (
            compile_stats.fused_fallback_states if compile_stats else 0
        ),
        "verdict": verdict,
        "decode_cache": {**cache_counts, "block_hit_rate": block_hit_rate},
        "code_cache": timed_code,
        "verify_code_cache": None if args.no_verify else verify_code,
        "translation_cache": timed_translations,
        "verify_translation_cache": None if args.no_verify else verify_translations,
        "fusion_plans": timed_plans,
        "verify_fusion_plans": None if args.no_verify else verify_plans,
    }


def _failed_probes_per_commit(stats) -> Optional[float]:
    """Probes that committed nothing, per committed transition."""
    if not stats.transitions:
        return None
    return round((stats.control_step_passes - stats.transitions) / stats.transitions, 4)


def _generated_calls_per_commit(stats) -> Optional[float]:
    """Probes plus wake tests the director ran, per committed transition
    (with fused steppers, the generated calls of the scan)."""
    if not stats.transitions:
        return None
    return round((stats.control_step_passes + stats.wake_calls) / stats.transitions, 4)


def _add_counts(total: dict, before: dict, after: dict) -> None:
    """Add one span's process-counter deltas to *total*."""
    for key in total:
        total[key] += after[key] - before[key]


def _print_bench_row(row: dict, verify: bool) -> None:
    mode = "fused" if row["fused"] else "no-fused"
    print(f"{row['model']} ({mode}): {row['cycles']} cycles in "
          f"{row['wall_seconds']:.2f}s "
          f"= {row['cycles_per_second']:,.0f} cycles/sec, "
          f"{row['events_per_second']:,.0f} events/sec")
    for name in sorted(row["phase_seconds"]):
        print(f"  phase {name:<9}: {row['phase_seconds'][name]:.3f}s")
    verdict = f", verdict from {row['verdict']}" if row["verdict"] else ""
    print(f"  fused states: {row['fused_states']} "
          f"({row['fused_fallback_states']} fallback{verdict})")
    print(f"  probes: {row['probes']} ({row['failed_probes_per_commit']} failed "
          f"per commit), parked skips: {row['parked_skips']}, wake calls: "
          f"{row['wake_calls']} ({row['generated_calls_per_commit']} generated "
          f"calls per commit)")
    cache = row["decode_cache"]
    if cache["block_hit_rate"] is not None:
        print(f"  block cache: {cache['block_hits']} hits / "
              f"{cache['block_misses']} misses "
              f"(hit rate {cache['block_hit_rate']:.2%}, "
              f"{cache['entry_invalidations']}+"
              f"{cache['block_invalidations']} invalidated)")
    print(f"  code cache: {_hit_counts(row['code_cache'])}")
    print(f"  translation cache: {_hit_counts(row['translation_cache'])}")
    print(f"  fusion plans: {_plan_counts(row['fusion_plans'])}")
    if verify:
        state = "ok" if not row["mismatches"] else "MISMATCH"
        print(f"  reference-loop verification: {state}")
        print(f"  code cache (verify re-runs): "
              f"{_hit_counts(row['verify_code_cache'])}")
        print(f"  translation cache (verify re-runs): "
              f"{_hit_counts(row['verify_translation_cache'])}")
        print(f"  fusion plans (verify re-runs): "
              f"{_plan_counts(row['verify_fusion_plans'])}")


def _hit_counts(counts: dict) -> str:
    return f"{counts['hits']} hits / {counts['misses']} misses"


def _plan_counts(plans: dict) -> str:
    return f"{plans['reused']} reused / {plans['generated']} generated"


def _bench_row_key(row):
    """Identity of a bench row inside ``--out`` files: rows for other
    (bench, model, quick, fused) combinations must survive a rerun."""
    return (row.get("bench"), row.get("model"),
            bool(row.get("quick")), bool(row.get("fused")))


def _merge_bench_rows(path: str, rows) -> list:
    """Merge *rows* into the JSON bench file at *path*.

    Earlier versions wrote ``--out`` with a whole-file ``json.dump``, so
    re-benching one model clobbered every other model's rows.  Now the
    existing file (a row object or a list of rows) is read back,
    rows with a matching :func:`_bench_row_key` are replaced in place,
    new keys are appended, and the file always ends up a list.  An
    unreadable or malformed file is treated as empty rather than
    aborting the bench that just finished.
    """
    import json
    import os

    existing: list = []
    if os.path.exists(path):
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if isinstance(payload, dict):
                existing = [payload]
            elif isinstance(payload, list):
                existing = [row for row in payload if isinstance(row, dict)]
        except (OSError, ValueError):
            existing = []
    fresh = {_bench_row_key(row): row for row in rows}
    merged = []
    for row in existing:
        merged.append(fresh.pop(_bench_row_key(row), row))
    merged.extend(fresh.values())
    with open(path, "w") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    return merged


def cmd_bench(args) -> int:
    """Benchmark models over the MediaBench workloads.

    Emits one JSON row per model with cycles/s, events/s (committed OSM
    transitions per second), the exact work counters of the fast path
    (``probes``, ``parked_skips``, ``wake_calls``,
    ``failed_probes_per_commit`` and ``generated_calls_per_commit``), the
    per-phase wall-time breakdown from the phase-attributed stats layer,
    the whole-model specialization
    counters (``fused_states``/``fused_fallback_states``), where the
    first build's fusion verdict came from (``verdict``: ``"cache"``
    when the fusion store held it, ``"gate"`` when the build ran the
    analyses, null unfused), the
    ISS block-cache hit rate, the hits and misses of the process code
    cache (:mod:`repro.codecache`) and translation cache
    (:mod:`repro.iss.translations`) over the timed builds and runs
    (``code_cache``, ``translation_cache``) and over the verify re-runs
    (``verify_code_cache``, ``verify_translation_cache``), and what the
    builds did with their fusion
    build plans (``fusion_plans`` and ``verify_fusion_plans``: how many
    reused one and how many generated their text; see
    :func:`repro.core.fuse.plan_stats`).  ``--model cases`` benches
    every case-study model (StrongARM and PPC 750).  ``--out`` holds a JSON array and is
    *merged*, not overwritten: rows are keyed by (bench, model, quick,
    fused), so partial reruns replace only their own rows.  Unless
    ``--no-verify`` is given, every workload is re-run under the
    director's reference scheduling loop and the simulation results
    (cycles, instructions, transitions, exit code) are compared — a
    mismatch fails the bench with exit status 1.  CI's perf-smoke job
    runs ``bench --quick`` fused and unfused and fails on result
    mismatches, on the fused ppc750 row's ``failed_probes_per_commit``
    above 0.65 or ``generated_calls_per_commit`` above 3.1, on any
    code-cache or translation-cache miss in a verify re-run and on any
    fused verify re-run build that did not reuse its plan, never on
    speed.
    """
    import json

    if args.model == "cases" and args.isa:
        raise SystemExit("--isa conflicts with --model cases "
                         "(each case model implies its ISA)")
    model_names = (
        list(BENCH_CASE_MODELS) if args.model == "cases" else [args.model]
    )
    fused = not args.no_fused
    rows = [_bench_model(name, args, fused) for name in model_names]
    payload = rows if args.model == "cases" else rows[0]
    if args.out:
        _merge_bench_rows(args.out, rows)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for row in rows:
            _print_bench_row(row, verify=not args.no_verify)
    failed = False
    for row in rows:
        for mismatch in row["mismatches"]:
            failed = True
            print(f"result mismatch on {row['model']}/{mismatch['workload']}: "
                  f"fast={mismatch['fast']} reference={mismatch['reference']}",
                  file=sys.stderr)
    return 1 if failed else 0


def cmd_serve(args) -> int:
    """Run the fleet job server (``repro serve``)."""
    from .fleet.server import serve

    serve(host=args.host, port=args.port, workers=args.workers,
          cache_dir=args.cache_dir, start_method=args.start_method)
    return 0


def _load_jobs(args) -> list:
    import json

    if args.sweep:
        from .fleet.bench import bench_jobs

        return bench_jobs(quick=args.sweep == "quick")
    if not args.jobs:
        raise SystemExit("submit needs a jobs file or --sweep")
    text = _read_source(args.jobs)
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"bad jobs JSON: {exc}")
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list) or not payload:
        raise SystemExit("jobs file must hold a job object or a list of jobs")
    return payload


def cmd_submit(args) -> int:
    """Submit jobs to a fleet server (``repro submit``).

    Streams one line per result as the server reports it; exits 1 if
    any job errored.  ``--ping`` and ``--shutdown`` are connection
    conveniences for scripts and CI.
    """
    import json

    from .fleet.client import FleetClient, FleetClientError

    client = FleetClient(host=args.host, port=args.port,
                         timeout=args.timeout)
    try:
        if args.ping:
            print(json.dumps(client.ping()))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.shutdown:
            print(json.dumps(client.shutdown()))
            return 0
        jobs = _load_jobs(args)
        summary = None
        for message in client.submit(jobs):
            if message.get("type") == "summary":
                summary = message
                continue
            if args.json:
                print(json.dumps(message))
            else:
                progress = message.get("progress", {})
                state = ("cache" if message.get("cached")
                         else "dedup" if message.get("dedup")
                         else "ran")
                status = "ok" if message.get("ok") else "ERROR"
                print(f"[{progress.get('completed', '?')}/"
                      f"{progress.get('total', '?')}] "
                      f"job {message.get('job')}: {status} ({state})")
    except FleetClientError as exc:
        print(f"fleet error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach fleet server at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    if summary is None:
        print("fleet error: submission ended without a summary",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary))
    else:
        print(f"{summary['jobs']} jobs: {summary['executed']} executed, "
              f"{summary['cache_hits']} cache hits, "
              f"{summary['dedup_hits']} dedup hits, "
              f"{summary['errors']} errors "
              f"(hit rate {summary['cache_hit_rate']:.2%})")
    return 1 if summary.get("errors") else 0


def cmd_fleet_bench(args) -> int:
    """End-to-end fleet throughput bench (``repro fleet-bench``).

    Runs the bench sweep cold then warm over one runner and writes the
    row to ``--out`` (default ``BENCH_fleet.json``).  Fails unless the
    warm pass is ≥90% cache hits with bit-identical payloads.
    """
    import json

    from .fleet.bench import MIN_WARM_HIT_RATE, fleet_bench

    row = fleet_bench(workers=args.workers, quick=args.quick,
                      cache_dir=args.cache_dir,
                      start_method=args.start_method)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(row, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(row, indent=2))
    else:
        print(f"fleet bench ({row['workers']} workers, "
              f"{row['jobs']} jobs, {row['unique_jobs']} unique): "
              f"cold {row['cold']['jobs_per_second']:.2f} jobs/s, "
              f"warm {row['warm']['jobs_per_second']:.2f} jobs/s, "
              f"warm hit rate {row['cache_hit_rate']:.2%}, "
              f"results {'identical' if row['results_identical'] else 'DIFFER'}")
    if not row["ok"]:
        print(f"fleet bench FAILED: warm hit rate {row['cache_hit_rate']:.2%} "
              f"(need ≥{MIN_WARM_HIT_RATE:.0%}), results_identical="
              f"{row['results_identical']}, errors "
              f"{row['cold']['errors']}+{row['warm']['errors']}",
              file=sys.stderr)
        return 1
    return 0


def cmd_workload(args) -> int:
    from .workloads import kernels, mediabench, speclike

    name = args.name
    if name in mediabench.MEDIABENCH_NAMES:
        source = (mediabench.arm_source if args.isa == "arm" else mediabench.ppc_source)(name)
    elif name in kernels.KERNEL_NAMES:
        if args.isa != "arm":
            raise SystemExit("diagnostic loops are ARM-only")
        source = kernels.arm_source(name)
    elif name in speclike.SPECLIKE_NAMES:
        if args.isa != "ppc":
            raise SystemExit("SPEC-like kernels are PPC-only")
        source = speclike.ppc_source(name)
    else:
        raise SystemExit(f"unknown workload {name!r}")
    print(source)
    return 0


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _add_analysis_parsers(sub) -> None:
    """The ``analyze`` umbrella and one subcommand per analysis tool,
    generated from :data:`ANALYSIS_TOOLS`."""
    import functools

    # analyze passes its args to every tool: give it their flag defaults
    flag_defaults = argparse.ArgumentParser(add_help=False, conflict_handler="resolve")
    for tool in ANALYSIS_TOOLS:
        for flags, kwargs in tool.flags:
            flag_defaults.add_argument(*flags, **kwargs)
    analyze = sub.add_parser(
        "analyze",
        help=f"run all {len(ANALYSIS_TOOLS)} analysis tools "
             f"({', '.join(tool.name for tool in ANALYSIS_TOOLS)}) over model "
             "specs (merged report)",
    )
    analyze.add_argument("subjects", nargs="+", metavar="MODEL",
                         help="registered spec name(s), or 'all'")
    analyze.add_argument("--json", action="store_true",
                         help="one merged machine-readable report")
    analyze.add_argument(*_SHOW_SUPPRESSED[0], **_SHOW_SUPPRESSED[1])
    analyze.set_defaults(func=cmd_analyze, **vars(flag_defaults.parse_args([])))

    for tool in ANALYSIS_TOOLS:
        parser = sub.add_parser(tool.name, help=tool.help)
        parser.add_argument(
            "subjects", nargs="+",
            metavar="MODEL" if tool.kinds == ("spec",) else "SUBJECT",
            help=", ".join(SUBJECT_KINDS[kind].help for kind in tool.kinds) + ", or 'all'",
        )
        parser.add_argument("--json", action="store_true", help="machine-readable output")
        parser.add_argument(
            *tool.filter_flags, dest="rules", metavar="CODES",
            help=f"comma-separated {tool.prefix} rule codes to run (default: all)",
        )
        for flags, kwargs in tool.flags:
            parser.add_argument(*flags, **kwargs)
        parser.set_defaults(func=functools.partial(cmd_tool, tool), show_suppressed=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="OSM retargetable microprocessor simulation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="assemble and simulate a program")
    run.add_argument("file", help="assembly source ('-' for stdin)")
    run.add_argument("--model", default="strongarm",
                     choices=sorted(MODEL_DEFAULT_ISA))
    run.add_argument("--isa", choices=("arm", "ppc"))
    shown = run.add_mutually_exclusive_group()
    shown.add_argument("--trace", action="store_true", help="print a pipeline chart")
    shown.add_argument("--json", action="store_true",
                       help="print one JSON object: the result, the fast "
                            "path's work counters, the fusion certificate "
                            "and the code-cache counters")
    run.add_argument("--trace-ops", type=int, default=40)
    run.add_argument("--max-cycles", type=int, default=10_000_000)
    run.set_defaults(func=cmd_run)

    asm = sub.add_parser("asm", help="assemble and list")
    asm.add_argument("file")
    asm.add_argument("--isa", default="arm", choices=("arm", "ppc"))
    asm.set_defaults(func=cmd_asm)

    _add_analysis_parsers(sub)

    bench = sub.add_parser("bench", help="measure simulation speed")
    bench.add_argument("--model", default="cases",
                       choices=sorted(set(MODEL_DEFAULT_ISA) - {"iss"}) + ["cases"],
                       help="a single model, or 'cases' for one row per "
                            "case-study model (strongarm + ppc750)")
    bench.add_argument("--isa", choices=("arm", "ppc"))
    bench.add_argument("--no-fused", action="store_true",
                       help="disable the fused per-state step functions, "
                            "running no generated OSM code (A/B baseline; "
                            "results must be identical)")
    bench.add_argument("--max-cycles", type=int, default=10_000_000)
    bench.add_argument("--quick", action="store_true",
                       help="CI subset: first three workloads only")
    bench.add_argument("--json", action="store_true",
                       help="print the result row as JSON")
    bench.add_argument("--out", metavar="FILE",
                       help="also write the JSON row to FILE")
    bench.add_argument("--no-verify", action="store_true",
                       help="skip the reference-loop result verification")
    bench.set_defaults(func=cmd_bench)

    from .fleet.server import DEFAULT_PORT

    serve = sub.add_parser(
        "serve", help="run the fleet job server (multiprocess, cached)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes (0 = serial in-process)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persistent result-cache directory "
                            "(default: in-memory)")
    serve.add_argument("--start-method", default="spawn",
                       choices=("spawn", "fork", "forkserver"))
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit jobs to a fleet server and stream results"
    )
    submit.add_argument("jobs", nargs="?",
                        help="JSON jobs file ('-' for stdin); "
                             "a job object or a list of jobs")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=DEFAULT_PORT)
    submit.add_argument("--sweep", choices=("quick", "full"),
                        help="submit the built-in bench sweep matrix "
                             "instead of a jobs file")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="socket timeout in seconds")
    submit.add_argument("--json", action="store_true",
                        help="stream raw JSON record lines")
    submit.add_argument("--ping", action="store_true",
                        help="just check the server is up")
    submit.add_argument("--stats", action="store_true",
                        help="print the server's pool + cache counters")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the server to stop")
    submit.set_defaults(func=cmd_submit)

    fleet_bench = sub.add_parser(
        "fleet-bench",
        help="end-to-end fleet throughput + cache hit rate bench",
    )
    fleet_bench.add_argument("--workers", type=int, default=2,
                             help="worker processes (0 = serial in-process)")
    fleet_bench.add_argument("--quick", action="store_true",
                             help="CI subset of the sweep matrix")
    fleet_bench.add_argument("--cache-dir", metavar="DIR",
                             help="persistent result-cache directory "
                                  "(default: in-memory)")
    fleet_bench.add_argument("--start-method", default="spawn",
                             choices=("spawn", "fork", "forkserver"))
    fleet_bench.add_argument("--out", metavar="FILE",
                             default="BENCH_fleet.json",
                             help="write the JSON row to FILE "
                                  "(default BENCH_fleet.json)")
    fleet_bench.add_argument("--json", action="store_true",
                             help="print the result row as JSON")
    fleet_bench.set_defaults(func=cmd_fleet_bench)

    workload = sub.add_parser("workload", help="print a bundled workload source")
    workload.add_argument("name")
    workload.add_argument("--isa", default="arm", choices=("arm", "ppc"))
    workload.set_defaults(func=cmd_workload)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (head, jq -e ...) closed the pipe; not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
