"""Tests for the effectcheck static effect/purity analyzer (EFF001–EFF008).

Every rule gets a triggering case on a minimal hand-built spec, the
bundled models are pinned effects-clean (modulo audited suppressions),
and the compilability report is round-tripped through ``enable_fusion``
to prove the certification actually gates the fused steppers.
"""

import pytest

from repro.analysis.effects import compilability_report, effects_spec
from repro.analysis.effects.footprint import Footprint, analyze_callable
from repro.analysis.registry import available_specs, build_spec
from repro.core import (
    Allocate,
    Condition,
    Guard,
    MachineSpec,
    Release,
    SlotManager,
    enable_fusion,
    fuse_spec,
    rank_stable_in_flight,
)
from repro.core.osm import OperationStateMachine
from repro.core.primitives import Primitive

# module-global mutated by the EFF007 fixture
TRACE = []


def clean_spec() -> MachineSpec:
    """A two-stage pipeline whose edge code is trivially pure."""
    a, b = SlotManager("A"), SlotManager("B")
    spec = MachineSpec("clean")
    spec.state("I", initial=True)
    spec.state("P")
    spec.state("Q")
    spec.edge("I", "P", Condition([Allocate(a)]), label="enter")
    spec.edge("P", "Q", Condition([Allocate(b), Release("A")]), label="advance")
    spec.edge("Q", "I", Condition([Release("B")]), label="retire")
    spec.validate()
    return spec


def one_edge_spec(condition, **edge_kwargs) -> MachineSpec:
    """``I --condition--> P --Release--> I`` around a single slot."""
    spec = MachineSpec("fixture")
    spec.state("I", initial=True)
    spec.state("P")
    spec.edge("I", "P", condition, **edge_kwargs)
    spec.edge("P", "I", Condition([Release("S")]), label="retire")
    return spec


def unsuppressed(report, code):
    return [d for d in report.by_code(code) if not d.suppressed]


class TestCleanSpec:
    def test_no_findings_and_fully_compilable(self):
        spec = clean_spec()
        report = effects_spec(spec)
        assert report.ok
        assert not report.diagnostics
        comp = compilability_report(spec, report)
        assert comp.fully_compilable
        assert comp.fusable_states == ["I", "P", "Q"]

    def test_all_eight_passes_run(self):
        report = effects_spec(clean_spec())
        assert report.passes_run == [f"EFF00{i}" for i in range(1, 9)]

    def test_unknown_code_filter_raises(self):
        with pytest.raises(ValueError, match="EFF999"):
            effects_spec(clean_spec(), codes=["EFF999"])


class TestImpureGuard:
    """EFF001."""

    def test_guard_mutating_osm_is_an_error(self):
        stage = SlotManager("S")

        def sneaky(osm):
            osm.operation = None
            return True

        spec = one_edge_spec(
            Condition([Guard(sneaky, "sneaky"), Allocate(stage)]), label="grab"
        )
        report = effects_spec(spec)
        findings = unsuppressed(report, "EFF001")
        assert findings and not report.ok
        assert findings[0].edge == "grab@0"
        assert "osm.operation" in findings[0].message

    def test_guard_mutating_closure_object_is_an_error(self):
        stage = SlotManager("S")
        seen = []

        def counting(osm):
            seen.append(osm)
            return True

        spec = one_edge_spec(
            Condition([Guard(counting, "counting"), Allocate(stage)])
        )
        report = effects_spec(spec)
        assert unsuppressed(report, "EFF001")

    def test_pure_guard_passes(self):
        stage = SlotManager("S")
        spec = one_edge_spec(
            Condition([Guard(lambda osm: osm.age > 0, "aged"), Allocate(stage)])
        )
        report = effects_spec(spec)
        assert not unsuppressed(report, "EFF001")

    def test_impure_dynamic_identifier_is_an_error(self):
        stage = SlotManager("S")

        def ident(osm):
            osm.tag = "x"
            return "t0"

        spec = one_edge_spec(Condition([Allocate(stage, ident=ident)]))
        report = effects_spec(spec)
        assert unsuppressed(report, "EFF001")


    def test_impure_guard_key_is_an_error(self):
        stage = SlotManager("S")

        def key(osm):
            osm.tag = "x"
            return osm.age

        spec = one_edge_spec(
            Condition([Guard.equals(key, 1, "keyed"), Allocate(stage)]))
        findings = unsuppressed(effects_spec(spec), "EFF001")
        assert any("guard 'keyed' key" in d.message
                   and "osm.tag" in d.message for d in findings)


class TestRankStabilityLie:
    """EFF002."""

    def test_marked_key_reading_mutable_state_is_an_error(self):
        @rank_stable_in_flight
        def lying_rank(osm):
            return len(osm.token_buffer)

        spec = clean_spec()
        spec.analysis_rank_key = lying_rank
        report = effects_spec(spec)
        findings = unsuppressed(report, "EFF002")
        assert findings and not report.ok
        assert "rank_stable_in_flight" in findings[0].message

    def test_marked_key_on_stable_inputs_passes(self):
        @rank_stable_in_flight
        def honest_rank(osm):
            return (osm.age, osm.serial)

        spec = clean_spec()
        spec.analysis_rank_key = honest_rank
        report = effects_spec(spec)
        assert not unsuppressed(report, "EFF002")

    def test_unmarked_key_is_never_reported(self):
        spec = clean_spec()
        spec.analysis_rank_key = lambda osm: len(osm.token_buffer)
        report = effects_spec(spec)
        assert not unsuppressed(report, "EFF002")

    def test_director_breadcrumb_feeds_the_rule(self):
        """Director.add stamps the rank key onto the spec, so building a
        model with a lying marked ranking is enough to get caught."""
        from repro.core.director import Director
        from repro.core.osm import OperationStateMachine

        @rank_stable_in_flight
        def lying_rank(osm):
            return len(osm.token_buffer)

        spec = clean_spec()
        director = Director(rank_key=lying_rank, deadlock_check=False)
        director.add(OperationStateMachine(spec))
        assert spec.analysis_rank_key is lying_rank
        assert unsuppressed(effects_spec(spec), "EFF002")


class TestRankInputMutation:
    """EFF003."""

    def _spec_with_interior_action(self, action):
        a, b = SlotManager("A"), SlotManager("B")
        spec = MachineSpec("interior")
        spec.state("I", initial=True)
        spec.state("P")
        spec.state("Q")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "Q", Condition([Allocate(b), Release("A")]), action=action)
        spec.edge("Q", "I", Condition([Release("B")]))
        return spec

    def test_interior_action_writing_rank_input_is_an_error(self):
        from repro.core.director import age_rank

        def bump(osm):
            osm.age += 1

        spec = self._spec_with_interior_action(bump)
        spec.analysis_rank_key = age_rank  # marked rank_stable_in_flight
        findings = unsuppressed(effects_spec(spec), "EFF003")
        assert findings
        assert "osm.age" in findings[0].message

    def test_boundary_action_is_exempt(self):
        """The same write on an I-boundary edge is where re-ranking is
        legal — the director re-sorts there anyway."""
        from repro.core.director import age_rank

        def bump(osm):
            osm.age += 1

        a = SlotManager("A")
        spec = MachineSpec("boundary")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a)]), action=bump)
        spec.edge("P", "I", Condition([Release("A")]))
        spec.analysis_rank_key = age_rank
        assert not unsuppressed(effects_spec(spec), "EFF003")

    def test_without_marked_key_rule_is_silent(self):
        def bump(osm):
            osm.age += 1

        spec = self._spec_with_interior_action(bump)
        assert not unsuppressed(effects_spec(spec), "EFF003")


class TestWriteRace:
    """EFF004."""

    def test_subset_siblings_writing_same_slot_race(self):
        stage = SlotManager("S")
        spec = MachineSpec("race")
        spec.state("I", initial=True)
        spec.state("P")
        # sig(plain) ⊆ sig(guarded): not statically disjoint, both
        # allocate into slot S
        spec.edge("I", "P", Condition([Allocate(stage)]), label="plain")
        spec.edge(
            "I", "P",
            Condition([Guard(lambda osm: osm.age > 2, "old"), Allocate(stage)]),
            label="guarded",
        )
        spec.edge("P", "I", Condition([Release("S")]))
        report = effects_spec(spec)
        findings = unsuppressed(report, "EFF004")
        assert findings and not report.ok
        assert "slot:S" in findings[0].message

    def test_disjoint_siblings_do_not_race(self):
        """Distinct guards make the siblings statically disjoint — the
        routing idiom of the bundled models — so no race is reported."""
        stage = SlotManager("S")
        spec = MachineSpec("routed")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Guard(lambda o: o.age > 0, "a"),
                                       Allocate(stage)]))
        spec.edge("I", "P", Condition([Guard(lambda o: o.age == 0, "b"),
                                       Allocate(stage)]))
        spec.edge("P", "I", Condition([Release("S")]))
        assert not unsuppressed(effects_spec(spec), "EFF004")

    def test_race_blocks_fusion_but_edge_stays_compilable(self):
        stage = SlotManager("S")
        spec = MachineSpec("race")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(stage)]), label="plain")
        spec.edge(
            "I", "P",
            Condition([Guard(lambda osm: osm.age > 2, "old"), Allocate(stage)]),
            label="guarded",
        )
        spec.edge("P", "I", Condition([Release("S")]))
        comp = compilability_report(spec, effects_spec(spec))
        assert not comp.verdicts["I"].fusable
        assert "EFF004" in comp.verdicts["I"].blockers
        # a race is a scheduling hazard, not a codegen problem: the
        # edges themselves still compile
        assert fuse_spec(spec) == len(spec.states)


class CountingProbe(Primitive):
    """Custom primitive whose probe leaks state — the EFF005 fixture."""

    kind = "counting"

    def __init__(self):
        self.count = 0

    def probe(self, osm, txn) -> bool:
        self.count += 1
        return True

    def __repr__(self):
        return "CountingProbe()"


class HonestProbe(Primitive):
    """Custom primitive honouring the probe protocol."""

    kind = "honest"

    def __init__(self, limit):
        self.limit = limit

    def probe(self, osm, txn) -> bool:
        return osm.age <= self.limit

    def __repr__(self):
        return f"HonestProbe({self.limit})"


class TestProbeDivergence:
    """EFF005."""

    def test_stateful_custom_probe_is_an_error(self):
        stage = SlotManager("S")
        spec = one_edge_spec(Condition([CountingProbe(), Allocate(stage)]))
        report = effects_spec(spec)
        findings = unsuppressed(report, "EFF005")
        assert findings
        assert "CountingProbe" in findings[0].message

    def test_protocol_abiding_custom_probe_passes(self):
        stage = SlotManager("S")
        spec = one_edge_spec(Condition([HonestProbe(3), Allocate(stage)]))
        assert not unsuppressed(effects_spec(spec), "EFF005")

    def test_action_mutating_baked_primitive_attribute(self):
        stage = SlotManager("S")
        probe = HonestProbe(3)

        def retune(osm):
            probe.limit = osm.age

        spec = MachineSpec("retuned")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([probe, Allocate(stage)]))
        spec.edge("P", "I", Condition([Release("S")]), action=retune)
        findings = unsuppressed(effects_spec(spec), "EFF005")
        assert findings
        assert "shared:HonestProbe.limit" in findings[0].message


class TestNondeterminism:
    """EFF006."""

    def test_random_in_guard_is_an_error(self):
        import random

        stage = SlotManager("S")
        spec = one_edge_spec(
            Condition([Guard(lambda osm: random.random() < 0.5, "coin"),
                       Allocate(stage)])
        )
        report = effects_spec(spec)
        findings = unsuppressed(report, "EFF006")
        assert findings and not report.ok

    def test_id_builtin_in_action_is_an_error(self):
        stage = SlotManager("S")

        def act(osm):
            osm.tag = id(osm) % 7

        spec = one_edge_spec(Condition([Allocate(stage)]), action=act)
        assert unsuppressed(effects_spec(spec), "EFF006")


class TestGlobalMutation:
    """EFF007 (warning severity: report stays ok)."""

    def test_action_appending_to_module_global_warns(self):
        stage = SlotManager("S")

        def act(osm):
            TRACE.append(osm.age)

        spec = one_edge_spec(Condition([Allocate(stage)]), action=act)
        report = effects_spec(spec)
        findings = unsuppressed(report, "EFF007")
        assert findings
        assert findings[0].severity.value == "warning"
        assert report.ok  # warnings do not gate


class TestOpaqueCode:
    """EFF008."""

    def test_unanalyzable_probe_time_code_warns(self):
        ns = {}
        exec("def mystery(osm):\n    return True", ns)
        stage = SlotManager("S")
        spec = one_edge_spec(
            Condition([Guard(ns["mystery"], "mystery"), Allocate(stage)])
        )
        report = effects_spec(spec)
        assert unsuppressed(report, "EFF008")
        assert report.ok  # warning, not error

    def test_opacity_blocks_fusion(self):
        ns = {}
        exec("def mystery(osm):\n    return True", ns)
        stage = SlotManager("S")
        spec = one_edge_spec(
            Condition([Guard(ns["mystery"], "mystery"), Allocate(stage)]),
            label="slow",
        )
        comp = compilability_report(spec, effects_spec(spec))
        assert not comp.verdicts["I"].fusable
        assert "EFF008" in comp.verdicts["I"].blockers


class TestSuppression:
    def test_edge_allow_suppresses_and_unblocks_compilability(self):
        stage = SlotManager("S")

        def sneaky(osm):
            osm.operation = None
            return True

        spec = one_edge_spec(
            Condition([Guard(sneaky, "sneaky"), Allocate(stage)]), label="grab"
        )
        next(e for e in spec.edges if e.qualname == "grab@0").allow_lint("EFF001")
        report = effects_spec(spec)
        assert report.ok
        assert report.by_code("EFF001")[0].suppressed
        comp = compilability_report(spec, report)
        assert comp.fully_compilable  # audited suppressions are trusted

    def test_spec_allow_suppresses(self):
        stage = SlotManager("S")

        def act(osm):
            TRACE.append(osm.age)

        spec = one_edge_spec(Condition([Allocate(stage)]), action=act)
        spec.allow_lint("EFF007")
        report = effects_spec(spec)
        assert all(d.suppressed for d in report.by_code("EFF007"))


def sneaky_spec() -> MachineSpec:
    """``I --grab--> P`` behind a guard that mutates the OSM (EFF001)."""
    def sneaky(osm):
        osm.operation = None
        return True

    return one_edge_spec(
        Condition([Guard(sneaky, "sneaky"), Allocate(SlotManager("S"))]),
        label="grab",
    )


class TestFusionGate:
    def test_unsafe_edge_keeps_its_state_unfused(self):
        spec = sneaky_spec()
        comp = compilability_report(spec, effects_spec(spec))
        assert "EFF001" in comp.verdicts["I"].blockers
        enable_fusion(spec)
        assert spec.states["I"]._fused is None
        assert spec.states["P"]._fused is not None
        assert spec.compile_stats.states["I"] == "policy: not certified fusable"

    def test_unfused_state_probes_through_the_primitives(self):
        """The state the gate keeps unfused still transitions correctly,
        on the interpreted reference, next to a fused one."""
        spec = sneaky_spec()
        enable_fusion(spec)
        osm = OperationStateMachine(spec)
        assert osm.try_transition(0).label == "grab"
        assert osm.current.name == "P" and osm.holds("S")
        assert spec.states["P"]._fused(osm, 1).label == "retire"
        assert osm.current.name == "I" and not osm.token_buffer


class TestFootprintAnalyzer:
    """Direct unit coverage of the substrate."""

    def test_pure_lambda(self):
        fp = analyze_callable(lambda osm: osm.age > 0, ("osm",))
        assert fp.pure
        assert "osm.age" in fp.reads

    def test_symbolic_write(self):
        def f(osm):
            osm.operation = None

        fp = analyze_callable(f, ("osm",))
        assert "osm.operation" in fp.writes

    def test_closure_object_write(self):
        holder = SlotManager("H")

        def f(osm):
            holder.extra = 1

        fp = analyze_callable(f, ("osm",))
        assert "shared:SlotManager.extra" in fp.writes

    def test_augmented_assignment_is_a_write(self):
        def f(osm):
            osm.age += 1

        fp = analyze_callable(f, ("osm",))
        assert "osm.age" in fp.writes

    def test_nondet_import_inside_function(self):
        def f(osm):
            import random
            return random.random()

        fp = analyze_callable(f, ("osm",))
        assert fp.nondet

    def test_known_pure_builtin_is_trivially_analyzable(self):
        fp = analyze_callable(len, ("osm",))
        assert fp.analyzable and fp.pure

    def test_unanalyzable_builtin(self):
        fp = analyze_callable(print, ("osm",))
        assert not fp.analyzable
        assert fp.reason

    def test_merge_is_a_union(self):
        a = Footprint(reads={"osm.age"}, writes={"osm.tag"})
        b = Footprint(reads={"osm.serial"}, nondet={"random.random"})
        a.merge(b)
        assert a.reads == {"osm.age", "osm.serial"}
        assert a.writes == {"osm.tag"}
        assert a.nondet == {"random.random"}
        assert not a.pure


@pytest.mark.parametrize("name", available_specs())
def test_bundled_specs_are_effects_clean(name):
    """Every bundled model must certify clean — audited suppressions
    are permitted, unsuppressed findings of any severity are not."""
    spec = build_spec(name)
    report = effects_spec(spec)
    assert report.ok, report.render_text()
    assert not report.warnings, report.render_text()


@pytest.mark.parametrize("name", available_specs())
def test_bundled_specs_are_fully_compilable(name):
    spec = build_spec(name)
    comp = compilability_report(spec, effects_spec(spec))
    assert comp.fully_compilable, comp.to_dict()
