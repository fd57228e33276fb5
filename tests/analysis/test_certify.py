"""transcheck (``repro certify``) — translation validation of generated
fast-path code.

Three layers of coverage:

* **Clean certification**: every registered spec and both ISA targets
  certify with zero errors — the generated fused steppers, execgen
  closures and ISS blocks all agree with their reference sources.
* **Mutation harness**: each rule TRV001–TRV009 (and the build-time
  gate) demonstrably *fires* when the corresponding generator output is
  corrupted, or (TRV009) a write site of a refusal field does not wake.
  A validator that never fails validates nothing.
* **Demotion plumbing**: a TRV-failing state is demoted by
  ``demote_states`` with the fallback counted in ``CompileStats``
  (the counters the bench JSON row reports).
"""

import re

import pytest

from repro.analysis.audit.targets import available_targets
from repro.analysis.certify import (
    ISA_CODES,
    SPEC_CODES,
    awake_states,
    certify_fused_states,
    certify_isa,
    certify_spec,
    certify_wake_tests,
)
from repro.analysis.certify.engine import (
    Trv002InlineContract,
    Trv004ExecgenWriteSet,
    Trv005BlockStoreGuards,
    Trv006PageMapCoverage,
)
from repro.analysis.registry import available_specs, build_spec
from repro.contentstore import GENERATOR_MODULES, generator_fingerprint
from repro.core import fuse
from repro.core.fuse import demote_states, enable_fusion
from repro.de.module import HardwareModule
from repro.models.pipeline5 import model as p5model

from ..conftest import (keyed_toy, queue_toy, resets_budget,
                        resets_budget_and_wakes)


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


@pytest.mark.parametrize("name", available_specs())
def test_every_spec_fuses_every_state(name):
    """Every bundled manager has a native emitter, so no registered spec
    leaves a state on the interpreted reference."""
    spec = build_spec(name)
    census = spec.compile_stats
    assert census.fused_fallback_states == 0, census.fallback_states
    assert census.fused_states == len(spec.states)


def test_generator_fingerprint_covers_every_emitter_module():
    """Emitter bodies are pasted into fused steppers, so editing one must
    change the fingerprint fuse certificates carry (TRV008)."""
    for name in available_specs():
        build_spec(name)  # imports every model module and its emitters
    modules = {type(emitter).__module__ for emitter in fuse._EMITTERS.values()}
    assert modules - set(GENERATOR_MODULES) == set()


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

    def test_trv002_fires_on_diverging_guard_key(self):
        from repro.models.ppc750 import model as ppc_model

        original = ppc_model.unit_of.__fuse_inline__
        ppc_model.unit_of.__fuse_inline__ = "osm.operation.instr.mnemonic"
        try:
            found = _errors(certify_spec(build_spec("ppc750"),
                                         codes=["TRV002"]), "TRV002")
        finally:
            ppc_model.unit_of.__fuse_inline__ = original
        assert found and all("key unit_of" in d.message
                             and "diverges" in d.message for d in found)
        assert {d.state for d in found} == {"Q"}

    @pytest.mark.parametrize("name", ["strongarm", "ppc750"])
    def test_trv001_fires_on_wrong_pasted_ident(self, name):
        """A stepper pasting another expression than the declared
        ``__fuse_inline__`` (``dst_regs`` for ``src_regs``) emits the
        same events, yet shifts cycle counts."""
        spec = build_spec(name)
        pasted = "(osm.operation.instr.src_regs)"
        state = next(s for s in spec.states.values() if s._fused is not None
                     and pasted in s._fused.__fused_source__)
        state._fused.__fused_source__ = state._fused.__fused_source__.replace(
            pasted, "(osm.operation.instr.dst_regs)", 1)
        found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
        assert found, "TRV001 must fire on a pasted ident the declaration denies"
        assert {d.state for d in found} == {state.name}

    def test_trv001_fires_on_dropped_cq_grant(self):
        """A ppc750 dispatch edge whose commit forgets to put its
        completion-queue grant into the token buffer."""
        spec = build_spec("ppc750")
        state = spec.states["Q"]
        state._fused.__fused_source__, n = re.subn(
            r"buffer\['cq'\] = \w+", "pass", state._fused.__fused_source__,
            count=1)
        assert n == 1
        found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
        assert found, "TRV001 must fire when an edge drops its cq grant"
        assert {d.state for d in found} == {"Q"}

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


#: corruptions of the stepper vocabulary the in-order queue and rename
#: emitters add, one per new event: (ppc750 state, source pattern,
#: replacement).  TRV001 admits each event only in its reference shape.
NEW_EVENT_MUTATIONS = {
    # the in-order queue's release budget counts up, never down
    "release-budget-bump": ("W", r"(\w+)\._released_this_cycle \+= 1",
                            r"\1._released_this_cycle -= 1"),
    # a probed rename buffer is stamped with the register it renames
    "rename-stamp": ("Q", r"(_rt\d+)\.value = \w+", r"\1.value = None"),
    # the two allocate raises may not become effects
    "bad-ident-raise": ("Q", r"raise TokenError\('%s: bad rename identifier.*",
                        "osm.age = -1"),
    "unknown-register-raise": ("Q", r"raise TokenError\('unknown architectural.*",
                               "osm.age = -1"),
    # producer chains hold operations, not other OSM fields
    "producer-append": ("Q", r"\.append\(osm\.operation\)", r".append(osm.current)"),
    "producer-remove": ("W", r"\.remove\(osm\.operation\)", r".remove(osm.current)"),
    # a completion-queue release commit must wake the new queue head
    "head-wake": ("W", r"\n *if (\w+)\._order and \1\._released_this_cycle < \1\.width:"
                       r"\n *\1\._order\[0\]\._asleep = False", ""),
}


@pytest.mark.parametrize("mutation", sorted(NEW_EVENT_MUTATIONS))
def test_trv001_pins_in_order_queue_and_rename_events(mutation):
    spec = build_spec("ppc750")
    name, pattern, replacement = NEW_EVENT_MUTATIONS[mutation]
    fn = spec.states[name]._fused
    fn.__fused_source__, n = re.subn(pattern, replacement,
                                     fn.__fused_source__, count=1)
    assert n == 1
    found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
    assert found, f"TRV001 must fire on a corrupted {mutation}"
    assert {d.state for d in found} == {name}


def _slice_loop(spec, pattern, replacement):
    """Rewrite the iterable of the first fused ``for`` loop whose
    iterable matches *pattern* (the way a miscompiled loop silently skips
    elements); returns the mutated state."""
    regex = re.compile(r"^(\s*for [\w, ]+ in )(" + pattern + r"):$", re.M)
    for state in spec.states.values():
        fn = state._fused
        match = regex.search(fn.__fused_source__) if fn is not None else None
        if match:
            fn.__fused_source__ = (
                fn.__fused_source__[:match.start(2)]
                + match.expand(replacement)
                + fn.__fused_source__[match.end(2):])
            return state
    pytest.fail(f"{spec.name}: no fused loop over {pattern!r}")


#: one case per loop-iterable shape the generators emit, each sliced to
#: its first element: (spec, iterable pattern, sliced replacement)
LOOP_SLICES = {
    "ident-local": ("pipeline5", r"i\d+v\d+", r"\2[:1]"),
    # ppc750's inquiry loop over the rename manager's source registers
    "ident-local-transactional": ("ppc750", r"i\d+v\d+", r"\2[:1]"),
    "idents-or-empty": ("pipeline5", r"\(osm\.operation\.instr\.dst_regs\) or \(\)",
                        r"(\2)[:1]"),
    "buffer-snapshot": ("pipeline5", r"list\(buffer\.items\(\)\)", r"\2[:1]"),
    "bound-token-list": ("vliw", r"pool_\d+", r"\2[:1]"),
    "register-update-tokens": ("pipeline5", r"upd_\d+\[\w+\]", r"\2[:1]"),
    "commit-list": ("pipeline5", r"r\d+l\d+", r"\2[:1]"),
    "enumerated-commit-list": ("pipeline5", r"enumerate\((m\d+l\d+)\)",
                               r"enumerate(\3[:1])"),
}


@pytest.mark.parametrize("shape", sorted(LOOP_SLICES))
def test_trv001_fires_on_sliced_loop_iterable(shape):
    """The replay walks a loop body once, so it must pin what the loop
    iterates: a sliced iterable skips work yet keeps every event."""
    name, pattern, replacement = LOOP_SLICES[shape]
    spec = build_spec(name)
    state = _slice_loop(spec, pattern, replacement)
    found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
    assert found, f"TRV001 must fire on a sliced {shape} loop"
    assert state.name in {d.state for d in found}


def test_build_gate_demotes_ppc750_q_on_partial_inquiry(fresh_plans):
    """A rename inquiry loop that checks only the first source
    register (a miscompile that shifts ppc750's cycle counts while the
    reference path still agrees with itself) must not survive the build
    gate: state Q is demoted and ``repro certify`` reports it."""
    from repro.isa.ppc import assemble
    from repro.models.ppc750 import Ppc750Model

    program = assemble("""
    .text
_start:
    li r0, 0
    li r3, 0
    sc
""")
    real = fuse.generate_stepper

    def partial(state, spec, *args):
        stepper = real(state, spec, *args)
        stepper.__fused_source__ = re.sub(
            r"(for i\d+s\d+ in )(i\d+v\d+):", r"\1\2[:1]:",
            stepper.__fused_source__)
        return stepper

    with fresh_plans(generate_stepper=partial):
        spec = Ppc750Model(program, perfect_memory=True).spec
    assert "Q" not in spec.fuse_certificate["fused_states"]
    assert "Q" in dict(spec.compile_stats.demoted_states)
    # repro certify reports the demotion, not a clean spec
    found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
    assert "Q" in {d.state for d in found}
    assert all("[:1]" in d.message for d in found)


#: miscompiles of a keyed guard's inline test in ppc750's first dispatch
#: edge (direct-iu1): (source pattern, replacement)
KEYED_TEST_MUTATIONS = {
    "wrong-value": (r"(\(osm\.operation\.instr\.unit\) != )'iu1'", r"\1'iu2'"),
    "wrong-key": (r"\(osm\.operation\.instr\.unit\)( != 'iu1')",
                  r"(osm.operation.instr.mnemonic)\1"),
    "inverted": (r"(\(osm\.operation\.instr\.unit\)) != ('iu1')", r"\1 == \2"),
}


@pytest.mark.parametrize("mutation", sorted(KEYED_TEST_MUTATIONS))
def test_build_gate_demotes_ppc750_q_on_wrong_keyed_test(fresh_plans, mutation):
    """A keyed test must compare the declared key expression against the
    guard's own value: the gate demotes Q otherwise, and ``repro
    certify`` reports the demotion."""
    from repro.isa.ppc import assemble
    from repro.models.ppc750 import Ppc750Model

    program = assemble("""
    .text
_start:
    li r0, 0
    li r3, 0
    sc
""")
    pattern, replacement = KEYED_TEST_MUTATIONS[mutation]
    real = fuse.generate_stepper

    def miscompiled(state, spec, *args):
        stepper = real(state, spec, *args)
        source, n = re.subn(pattern, replacement, stepper.__fused_source__,
                            count=1)
        assert n == (state.name == "Q")
        stepper.__fused_source__ = source
        return stepper

    with fresh_plans(generate_stepper=miscompiled):
        spec = Ppc750Model(program, perfect_memory=True).spec
    assert dict(spec.compile_stats.demoted_states).keys() == {"Q"}
    found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
    assert {d.state for d in found} == {"Q"}
    assert "direct-iu1@1" in found[0].message


#: miscompiles of ppc750's Q wake test: (source pattern, replacement)
WAKE_MUTATIONS = {
    # the reset inquiry's check is gone: a doomed operation would park
    "omitted-check": (r"    if not \(id\(osm\) not in doomed_\d+\):\n        return True\n",
                      ""),
    # a passing reset inquiry reports "every edge refuses"
    "false-on-pass": (r"return True", "return False"),
    # a branch unit's operation records the reset refusal, not the queue
    "wrong-record": (r" or _wk\d+ == 'bpu'", ""),
    # the queue refuses every holder, not only those behind the head
    "stronger-refusal": (r"\._order\[0\] is not osm", "._order[0] is not None"),
}


def _ppc750_with_wake_mutation(fresh_plans, mutation):
    from repro.isa.ppc import assemble
    from repro.models.ppc750 import Ppc750Model

    program = assemble("""
    .text
_start:
    li r0, 0
    li r3, 0
    sc
""")
    pattern, replacement = WAKE_MUTATIONS[mutation]
    real = fuse.generate_wake

    def miscompiled(state, spec, *args):
        wake = real(state, spec, *args)
        if state.name == "Q":
            wake.__fused_source__, n = re.subn(
                pattern, replacement, wake.__fused_source__, count=1)
            assert n == 1
        return wake

    with fresh_plans(generate_wake=miscompiled):
        return Ppc750Model(program, perfect_memory=True).spec


@pytest.mark.parametrize("mutation", sorted(WAKE_MUTATIONS))
def test_build_gate_drops_ppc750_q_wake_test(fresh_plans, mutation):
    """TRV001 replays the wake tests: a miscompiled one is dropped at
    model build while Q stays fused, the census says why, and ``repro
    certify`` reports the drop."""
    spec = _ppc750_with_wake_mutation(fresh_plans, mutation)
    assert "Q" in spec.fuse_certificate["fused_states"]
    assert spec.fuse_certificate["parked_states"] == ["W", "X"]
    assert spec.states["Q"]._fused is not None and spec.states["Q"]._wake is None
    assert [name for name, _ in spec.compile_stats.unparked_states] == ["Q"]
    assert spec.compile_stats.demoted_states == []
    found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
    assert {d.state for d in found} == {"Q"}
    assert all("wake test" in d.message for d in found)


@pytest.mark.parametrize("mutation", sorted(WAKE_MUTATIONS))
def test_trv001_fires_on_miscompiled_wake_test(mutation):
    spec = build_spec("ppc750")
    wake = spec.states["Q"]._wake
    pattern, replacement = WAKE_MUTATIONS[mutation]
    wake.__fused_source__, n = re.subn(pattern, replacement,
                                       wake.__fused_source__, count=1)
    assert n == 1
    assert certify_wake_tests(spec) != []
    found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
    assert {d.state for d in found} == {"Q"}


def test_trv001_fires_on_wake_test_of_a_state_without_park_points():
    spec = build_spec("ppc750")
    spec.states["R"]._wake = spec.states["Q"]._wake
    found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
    assert {d.state for d in found} == {"R"}


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
        report = certify_isa(
            "arm",
            passes=[Trv005BlockStoreGuards(
                interpreter=arm_iss, mutate=_strip_guards)])
        found = _errors(report, "TRV005")
        assert found, "TRV005 must fire when store guards are stripped"

    def test_trv005_fires_on_stripped_ppc_store_guards(self):
        from repro.analysis.certify.isachecks import run_ppc_driver

        ppc_iss = run_ppc_driver()
        assert certify_isa("ppc", passes=[
            Trv005BlockStoreGuards(interpreter=ppc_iss)]).diagnostics == []
        report = certify_isa(
            "ppc",
            passes=[Trv005BlockStoreGuards(
                interpreter=ppc_iss, mutate=_strip_guards)])
        found = _errors(report, "TRV005")
        assert found, "TRV005 must fire when PPC store guards are stripped"

    @pytest.mark.parametrize("isa", ["arm", "ppc"])
    @pytest.mark.parametrize("mutation", ["strip-guard", "load-above-guard"])
    def test_trv005_fires_on_loop_form_mutations(self, isa, mutation):
        """The drivers' block that loops in place stores then loads: its
        guard stripped, or the load moved above it, is reported at that
        block and nowhere else."""
        from repro.analysis.certify.isachecks import run_arm_driver, run_ppc_driver

        iss = run_arm_driver() if isa == "arm" else run_ppc_driver()
        loops = [entry for entry, block in iss.decode_cache.blocks.items()
                 if "while True:" in block.compiled.__block_source__]
        assert len(loops) == 1
        assert certify_isa(isa, passes=[
            Trv005BlockStoreGuards(interpreter=iss)]).diagnostics == []
        mutate = _strip_guards if mutation == "strip-guard" else _load_above_guard
        report = certify_isa(isa, passes=[Trv005BlockStoreGuards(
            interpreter=iss,
            mutate=lambda source: mutate(source) if "while True:" in source
            else source)])
        found = _errors(report, "TRV005")
        assert found, f"TRV005 must fire on a loop block's {mutation}"
        assert all(d.message.startswith(f"block {loops[0]:#x}:") for d in found)

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


def _strip_guards(source):
    """*source* without its ``_block.valid`` guards."""
    out, skip_indent = [], None
    for line in source.splitlines():
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if skip_indent is not None:
            if stripped and indent > skip_indent:
                continue
            skip_indent = None
        if "_block.valid" in stripped:
            skip_indent = indent
            continue
        out.append(line)
    return "\n".join(out)


def _load_above_guard(source):
    """*source* with the first load after its loop body's store guard
    moved above that guard."""
    import ast

    tree = ast.parse(source)
    body = next(node for node in ast.walk(tree) if isinstance(node, ast.While)).body
    guard = next(index for index, stmt in enumerate(body)
                 if isinstance(stmt, ast.If) and "_block.valid" in ast.unparse(stmt.test))
    load = next(index for index in range(guard + 1, len(body))
                if "_word(" in ast.unparse(body[index]))
    body.insert(guard, body.pop(load))
    return ast.unparse(tree)


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

    def test_corrupted_generator_demotes_at_model_build(self, fresh_plans):
        """End to end: a generator emitting uncertifiable code loses the
        fused stepper at ``enable_fusion`` time, and the demotion is
        counted as a transcheck demotion in the compile stats (the
        counters the bench JSON row carries)."""
        from repro.isa.arm import assemble
        from repro.models.pipeline5 import Pipeline5Model

        real = fuse.generate_stepper

        def corrupted(state, spec, *args):
            stepper = real(state, spec, *args)
            stepper.__fused_source__ = stepper.__fused_source__.replace(
                "osm.n_transitions += 1", "pass", 1)
            return stepper

        program = assemble("""
    .text
_start:
    mov r0, #0
    swi #0
""")
        with fresh_plans(generate_stepper=corrupted):
            model = Pipeline5Model(program, fused=True)
        stats = model.spec.compile_stats
        assert stats.fused_states == 0
        assert stats.fused_fallback_states > 0
        # every unfused state is a transcheck demotion
        demoted = [name for name, _ in stats.demoted_states]
        assert demoted == [name for name, _ in stats.fallback_states]

        # a healthy rebuild recovers full fusion
        model = Pipeline5Model(program, fused=True)
        assert model.spec.compile_stats.fused_fallback_states == 0


def test_trv_verdict_is_not_shared_by_specs_of_one_structure(fresh_plans):
    """Two specs that differ only in a keyed-guard value and a slot name
    generate different steppers, so they must not share a TRV001
    verdict: a miscompile of the second is demoted although the first
    certified clean."""
    clean = keyed_toy(0, "a")
    enable_fusion(clean)
    assert clean.compile_stats.demoted_states == []
    target = keyed_toy(1, "b")
    real = fuse.generate_stepper

    def miscompiled(state, spec, *args):
        stepper = real(state, spec, *args)
        if spec is target and state.name == "I":
            source, n = re.subn(r"\(osm\.tag\) != 1:", "(osm.tag) != 0:",
                                stepper.__fused_source__)
            assert n == 1
            stepper.__fused_source__ = source
        return stepper

    with fresh_plans(generate_stepper=miscompiled):
        enable_fusion(target)
    assert dict(target.compile_stats.demoted_states).keys() == {"I"}
    assert target.fuse_certificate["fused_states"] == ["P"]


class TestDemotionPlumbing:
    def test_demote_states_consumes_trv_verdicts(self):
        spec = build_spec("pipeline5")
        state = _fused_state(spec)
        before = spec.compile_stats.fused_states
        changed = demote_states(
            spec, [(state.name, "stepper does not replay")])
        stats = spec.compile_stats
        assert changed == 1
        assert state._fused is None
        assert stats.states[state.name] == (
            fuse.CERTIFY_PREFIX + "stepper does not replay")
        assert stats.fused_states == before - 1
        assert stats.fused_fallback_states == 1
        assert stats.demoted_states == [(state.name, "stepper does not replay")]
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


# -- sleeping: TRV001's sleep marks and TRV009's write sites ---------------------

def test_ppc750_sleeps_at_its_queues():
    """Q and W park only at the in-order queues and the reset inquiry,
    whose emitters keep the wake contract, and every write site of their
    refusal fields wakes: both sleep.  X parks at a unit's slot, whose
    emitter keeps none."""
    spec = build_spec("ppc750")
    stats = spec.compile_stats
    assert stats.sleeping_states == ["Q", "W"]
    assert stats.awake_states == []
    assert awake_states(spec) == []
    for name in "QWX":
        marks = "osm._asleep = True" in spec.states[name]._wake.__fused_source__
        assert marks == (name in "QW"), name


def test_trv001_fires_on_a_sleep_without_a_wake_contract():
    spec = build_spec("ppc750")
    wake = spec.states["X"]._wake
    wake.__fused_source__, n = re.subn(
        r"\n(\s+)return False", r"\n\1osm._asleep = True\n\1return False",
        wake.__fused_source__)
    assert n == 1
    found = _errors(certify_spec(spec, codes=["TRV001"]), "TRV001")
    assert {d.state for d in found} == {"X"}
    assert "no wake contract" in found[0].message


def _noop_action(queue):
    def leave(osm):
        pass
    return leave


class _UnwokenQueueUnit(HardwareModule):
    """A queue's cycle hook that resets the release budget without
    waking the head.  No model builds one: TRV009 finds it by its class,
    defined in a module the spec's code comes from."""

    def __init__(self, queue):
        super().__init__("unwoken")
        self.queue = queue

    def begin_cycle(self, cycle):
        self.queue._released_this_cycle = 0


def test_trv009_keeps_a_state_awake_on_an_unwoken_write(fresh_plans):
    """An edge action that writes a refusal field without a wake: the
    gate keeps Q awake (its wake test still runs, with no sleep mark),
    the census says why, and ``repro certify`` reports TRV009."""
    spec = queue_toy(resets_budget)
    with fresh_plans():
        enable_fusion(spec)
    stats = spec.compile_stats
    assert stats.parked_states == ["Q"]
    assert stats.sleeping_states == []
    [(name, reason)] = stats.awake_states
    assert name == "Q" and "'_released_this_cycle'" in reason
    assert "_asleep" not in spec.states["Q"]._wake.__fused_source__
    found = _errors(certify_spec(spec, codes=["TRV009"]), "TRV009")
    assert {d.state for d in found} == {"Q"}


def test_trv009_accepts_a_waking_write(fresh_plans):
    spec = queue_toy(resets_budget_and_wakes)
    with fresh_plans():
        enable_fusion(spec)
    assert spec.compile_stats.sleeping_states == ["Q"]
    assert _errors(certify_spec(spec, codes=["TRV009"]), "TRV009") == []


def test_trv009_scans_hardware_modules_by_class():
    """The spec's action comes from this module, which defines a hardware
    module writing the budget unwoken: Q stays awake although no such
    module exists."""
    spec = queue_toy(_noop_action)
    [(name, reason)] = awake_states(spec)
    assert name == "Q" and reason.startswith("_UnwokenQueueUnit.begin_cycle")
