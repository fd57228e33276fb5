"""transcheck (``repro certify``) — translation validation of generated
fast-path code.

Three layers of coverage:

* **Clean certification**: every registered spec and both ISA targets
  certify with zero errors — the generated fused steppers, compiled
  probes, execgen closures and ISS blocks all agree with their reference
  sources.
* **Mutation harness**: each rule TRV001–TRV008 (and the build-time
  gate) demonstrably *fires* when the corresponding generator output is
  corrupted.  A validator that never fails validates nothing.
* **Demotion plumbing**: a TRV-failing state is demoted by
  ``apply_compilability`` with the fallback counted in ``CompileStats``
  (the counters the bench JSON row reports).
"""

import pytest

from repro.analysis.audit.targets import available_targets
from repro.analysis.certify import (
    ISA_CODES,
    SPEC_CODES,
    certify_fused_states,
    certify_isa,
    certify_spec,
    generator_fingerprint,
)
from repro.analysis.certify.engine import (
    Trv002InlineContract,
    Trv004ExecgenWriteSet,
    Trv005BlockStoreGuards,
    Trv006PageMapCoverage,
)
from repro.analysis.registry import available_specs, build_spec
from repro.core import edgecompile, fuse
from repro.core.edgecompile import apply_compilability
from repro.models.pipeline5 import model as p5model


def _errors(report, code=None):
    return [
        d for d in report.diagnostics
        if d.severity.value == "error" and not d.suppressed
        and (code is None or d.code == code)
    ]


def _warnings(report, code=None):
    return [
        d for d in report.diagnostics
        if d.severity.value == "warning" and (code is None or d.code == code)
    ]


def _fused_state(spec):
    state = next(
        (s for s in spec.states.values() if s._fused is not None), None)
    assert state is not None, f"{spec.name}: no fused state to corrupt"
    return state


# -- clean certification ------------------------------------------------------

@pytest.mark.parametrize("name", available_specs())
def test_every_spec_certifies_clean(name):
    report = certify_spec(build_spec(name))
    assert list(report.passes_run) == list(SPEC_CODES)
    assert report.ok, report.render_text()
    assert not _errors(report)


@pytest.mark.parametrize("target", available_targets())
def test_every_isa_certifies_clean(target):
    report = certify_isa(target)
    assert list(report.passes_run) == list(ISA_CODES)
    assert report.ok, report.render_text()
    assert not _errors(report)


# -- mutation harness: every rule must fire on corrupted output ---------------

class TestSpecRuleMutations:
    def test_trv001_fires_on_corrupted_fused_source(self):
        spec = build_spec("pipeline5")
        state = _fused_state(spec)
        source = state._fused.__fused_source__
        state._fused.__fused_source__ = source.replace(
            "osm.n_transitions += 1", "pass", 1)
        report = certify_spec(spec, codes=["TRV001"])
        found = _errors(report, "TRV001")
        assert found, report.render_text()
        assert state.name in {d.state for d in found}

    def test_trv001_fires_on_missing_source_hook(self):
        spec = build_spec("pipeline5")
        state = _fused_state(spec)
        state._fused.__fused_source__ = None
        found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
        assert found and "__fused_source__" in found[0].message

    def test_trv002_fires_on_diverging_inline_tag(self):
        spec = build_spec("pipeline5")
        original = p5model._source_regs.__fuse_inline__
        p5model._source_regs.__fuse_inline__ = "osm.operation.instr.dst_regs"
        try:
            found = _errors(certify_spec(spec, codes=["TRV002"]), "TRV002")
        finally:
            p5model._source_regs.__fuse_inline__ = original
        assert found and "diverges" in found[0].message

    def test_trv003_fires_on_corrupted_probe_source(self, monkeypatch):
        spec = build_spec("pipeline5")
        real = edgecompile.compile_edge_probe

        def corrupted(edge, spec=None):
            probe = real(edge, spec)
            source = getattr(probe, "__probe_source__", None)
            if source is not None and "txn.grants.append" in source:
                probe.__probe_source__ = source.replace(
                    "txn.grants.append((a0_slot, token))", "pass", 1)
            return probe

        monkeypatch.setattr(edgecompile, "compile_edge_probe", corrupted)
        found = _errors(certify_spec(spec, codes=["TRV003"]), "TRV003")
        assert found, "TRV003 must fire when a compiled probe drops a grant"
        assert "diverges from the primitive plan" in found[0].message

    def test_trv007_fires_on_census_drift(self):
        spec = build_spec("pipeline5")
        state = _fused_state(spec)
        # drop the stepper without updating the compile census
        state._fused = None
        found = _errors(certify_spec(spec, codes=["TRV007"]), "TRV007")
        assert found and state.name in {d.state for d in found}

    def test_trv008_fires_on_stale_generator_fingerprint(self):
        spec = build_spec("pipeline5")
        assert spec.fuse_certificate is not None
        spec.fuse_certificate = dict(
            spec.fuse_certificate, generator="deadbeef")
        found = _errors(certify_spec(spec, codes=["TRV008"]), "TRV008")
        assert found and "stale fuse certificate" in found[0].message

    def test_trv008_fires_on_missing_certificate(self):
        spec = build_spec("pipeline5")
        _fused_state(spec)
        spec.fuse_certificate = None
        found = _errors(certify_spec(spec, codes=["TRV008"]), "TRV008")
        assert found and "no fuse certificate" in found[0].message

    def test_trv008_fires_on_stamped_state_drift(self):
        spec = build_spec("pipeline5")
        state = _fused_state(spec)
        stamped = [n for n in spec.fuse_certificate["fused_states"]
                   if n != state.name]
        spec.fuse_certificate = dict(
            spec.fuse_certificate, fused_states=stamped)
        found = _errors(certify_spec(spec, codes=["TRV008"]), "TRV008")
        assert found and "certificate covers states" in found[0].message


class TestIsaRuleMutations:
    def test_trv004_fires_on_dropped_flag_writes(self):
        from repro.isa.arm.execgen import _translate

        def dropped_flags(instr, name):
            source = _translate(instr, name)
            if source is None:
                return None
            # structure-preserving rename: the executor still parses but
            # its static write set loses every flag
            return source.replace("state.flag_", "_shadow_flag_")

        report = certify_isa(
            "arm", passes=[Trv004ExecgenWriteSet(translate=dropped_flags)])
        found = _errors(report, "TRV004")
        assert found, "TRV004 must fire when the executor drops flag writes"
        assert "never writes" in found[0].message

    def test_trv005_fires_on_stripped_store_guards(self, arm_iss):
        def strip_guards(source):
            out, skip_indent = [], None
            for line in source.splitlines():
                stripped = line.strip()
                indent = len(line) - len(line.lstrip())
                if skip_indent is not None:
                    if stripped and indent > skip_indent:
                        continue
                    skip_indent = None
                if "_b.valid" in stripped:
                    skip_indent = indent
                    continue
                out.append(line)
            return "\n".join(out)

        report = certify_isa(
            "arm",
            passes=[Trv005BlockStoreGuards(
                interpreter=arm_iss, mutate=strip_guards)])
        found = _errors(report, "TRV005")
        assert found, "TRV005 must fire when store guards are stripped"

    def test_trv005_fires_on_missing_block_source(self, arm_iss):
        entry, block = next(iter(arm_iss.decode_cache.blocks.items()))
        saved = block.compiled.__block_source__
        block.compiled.__block_source__ = None
        try:
            report = certify_isa(
                "arm", passes=[Trv005BlockStoreGuards(interpreter=arm_iss)])
        finally:
            block.compiled.__block_source__ = saved
        found = _errors(report, "TRV005")
        assert found and "__block_source__" in found[0].message

    def test_trv006_fires_on_dropped_page_entry(self, arm_iss):
        cache = arm_iss.decode_cache
        page = next(iter(cache._block_pages))
        saved = cache._block_pages.pop(page)
        try:
            report = certify_isa(
                "arm", passes=[Trv006PageMapCoverage(decode_cache=cache)])
        finally:
            cache._block_pages[page] = saved
        assert _errors(report, "TRV006"), report.render_text()


@pytest.fixture(scope="module")
def arm_iss():
    from repro.analysis.certify.isachecks import run_arm_driver
    return run_arm_driver()


# -- the build-time gate ------------------------------------------------------

class TestBuildGate:
    def test_gate_reports_corrupted_stepper(self):
        spec = build_spec("pipeline5")
        assert certify_fused_states(spec) == []
        state = _fused_state(spec)
        source = state._fused.__fused_source__
        state._fused.__fused_source__ = source.replace(
            "osm.n_transitions += 1", "pass", 1)
        failures = certify_fused_states(spec)
        assert [name for name, _ in failures] == [state.name]

    def test_corrupted_generator_demotes_at_model_build(self, monkeypatch):
        """End to end: a generator emitting uncertifiable code loses the
        fused stepper at ``enable_fusion`` time, and the demotion is
        counted as a ``certify:`` fallback in the compile stats (the
        counters the bench JSON row carries)."""
        from repro.isa.arm import assemble
        from repro.models.pipeline5 import Pipeline5Model

        real = fuse.generate_stepper

        def corrupted(state, spec):
            stepper = real(state, spec)
            stepper.__fused_source__ = stepper.__fused_source__.replace(
                "osm.n_transitions += 1", "pass", 1)
            return stepper

        program = assemble("""
    .text
_start:
    mov r0, #0
    swi #0
""")
        with monkeypatch.context() as patch:
            patch.setattr(fuse, "generate_stepper", corrupted)
            fuse._TRV_CACHE.clear()
            try:
                model = Pipeline5Model(program, fused=True)
                stats = model.spec.compile_stats
                assert stats.fused_states == 0
                assert stats.fused_fallback_states > 0
                reasons = [r for r in stats.states.values() if r is not None]
                assert reasons and all(
                    r.startswith("certify:") for r in reasons)
            finally:
                fuse._TRV_CACHE.clear()

        # a healthy rebuild recovers full fusion
        model = Pipeline5Model(program, fused=True)
        assert model.spec.compile_stats.fused_fallback_states == 0


class TestDemotionPlumbing:
    def test_apply_compilability_consumes_trv_verdicts(self):
        class _Verdict:
            unsafe_edges = ()

            def __init__(self, states):
                self.uncertified_states = states

        spec = build_spec("pipeline5")
        state = _fused_state(spec)
        before = spec.compile_stats.fused_states
        changed = apply_compilability(
            spec, _Verdict([(state.name, "stepper does not replay")]))
        stats = spec.compile_stats
        assert changed == 1
        assert state._fused is None
        assert stats.states[state.name] == "certify: stepper does not replay"
        assert stats.fused_states == before - 1
        assert stats.fused_fallback_states == 1
        assert (state.name, "certify: stepper does not replay") \
            in stats.fallback_states
        # the counters the bench row publishes survive serialization
        payload = stats.to_dict()
        assert payload["fused_states"] == before - 1
        assert payload["fused_fallback_states"] == 1


# -- satellite: fused=False rebuilds must not leak fusion counters ------------

class TestUnfusedRebuildCounters:
    def test_unfused_build_reports_zero_fusion_counters(self):
        from repro.isa.arm import assemble
        from repro.models.pipeline5 import Pipeline5Model

        program = assemble("""
    .text
_start:
    mov r0, #0
    swi #0
""")
        fused = Pipeline5Model(program, fused=True)
        assert fused.spec.compile_stats.fused_states > 0
        plain = Pipeline5Model(program, fused=False)
        stats = plain.spec.compile_stats
        assert stats.fused_states == 0
        assert stats.fused_fallback_states == 0
        assert getattr(plain.spec, "fuse_certificate", None) is None

    def test_defuse_spec_clears_census_and_certificate(self):
        spec = build_spec("ppc750")
        assert spec.compile_stats.fused_states > 0
        fuse.defuse_spec(spec)
        assert spec.compile_stats.fused_states == 0
        assert spec.compile_stats.fused_fallback_states == 0
        assert spec.fuse_certificate is None
        assert all(s._fused is None for s in spec.states.values())


# -- satellite: unsafe / impure __fuse_inline__ declarations ------------------

class TestInlineContract:
    def test_fuser_demotes_unsafe_inline_to_dynamic_call(self):
        spec = build_spec("pipeline5")
        state = next(
            s for s in spec.states.values()
            if s._fused is not None
            and "(osm.operation.instr.src_regs)" in s._fused.__fused_source__)
        original = p5model._source_regs.__fuse_inline__
        p5model._source_regs.__fuse_inline__ = "_source_regs(osm)"  # a call
        try:
            assert not fuse.safe_inline_expr("_source_regs(osm)")
            stepper = fuse.generate_stepper(state, spec)
        finally:
            p5model._source_regs.__fuse_inline__ = original
        source = stepper.__fused_source__
        # the unsafe expression is not pasted; the site is a bound call
        assert "_source_regs(osm)" not in source
        assert "(osm.operation.instr.src_regs)" not in source
        assert "(osm)" in source

    def test_trv002_warns_on_unsafe_inline_expression(self):
        spec = build_spec("pipeline5")
        original = p5model._source_regs.__fuse_inline__
        p5model._source_regs.__fuse_inline__ = "_source_regs(osm)"
        try:
            report = certify_spec(spec, codes=["TRV002"])
        finally:
            p5model._source_regs.__fuse_inline__ = original
        warned = _warnings(report, "TRV002")
        assert warned and "not a safe expression" in warned[0].message
        assert report.ok  # the fuser demotes; a warning, not an error

    def test_trv002_flags_impure_tagged_callable(self):
        def impure(osm):
            osm.n_transitions += 1
            return osm.operation.instr.src_regs

        impure.__fuse_inline__ = "osm.operation.instr.src_regs"
        diags = self._run_inline_pass(impure)
        assert any(d.severity.value == "error" and "impure" in d.message
                   for d in diags)

    def test_trv002_warns_on_unverifiable_body(self):
        def multi(osm):
            regs = osm.operation.instr
            return regs.src_regs

        multi.__fuse_inline__ = "osm.operation.instr.src_regs"
        diags = self._run_inline_pass(multi)
        assert any(d.severity.value == "warning"
                   and "unverifiable" in d.message for d in diags)

    def test_trv002_accepts_faithful_tag(self):
        def faithful(osm):
            return osm.operation.instr.src_regs

        faithful.__fuse_inline__ = "osm.operation.instr.src_regs"
        assert self._run_inline_pass(faithful) == []

    @staticmethod
    def _run_inline_pass(fn):
        class _Site:
            name = "test.ident"
            role = "ident"
            param_roles = ("osm",)
            edge = None

            def __init__(self, fn):
                self.fn = fn

        class _Ctx:
            subject = "inline-fixture"

            def __init__(self, fn):
                self.ident_sites = [_Site(fn)]

        return list(Trv002InlineContract().run(_Ctx(fn)))


# -- certificate freshness ----------------------------------------------------

def test_certificate_matches_current_generators():
    spec = build_spec("strongarm")
    cert = spec.fuse_certificate
    assert cert is not None
    assert cert["generator"] == generator_fingerprint()
    assert cert["fused_states"] == sorted(
        name for name, state in spec.states.items()
        if state._fused is not None)
