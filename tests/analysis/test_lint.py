"""Tests for the osmlint static-analysis framework (OSM001–OSM008).

Every rule gets one triggering (positive) and one passing (negative)
case on a minimal hand-built spec, plus triage tests pinning that every
bundled model lints clean and the seeded-bug check from the issue:
dropping a Release primitive from pipeline5's retire edge must surface
as a token-leak diagnostic.
"""

import pytest

from repro.analysis.lint import Severity, analyze_buffers, lint_spec
from repro.analysis.registry import available_specs, build_spec
from repro.core import (
    ALWAYS,
    Allocate,
    AllocateMany,
    Condition,
    Discard,
    Guard,
    Inquire,
    MachineSpec,
    PoolManager,
    Release,
    ReleaseMany,
    SlotManager,
)


def clean_spec() -> MachineSpec:
    """A minimal two-stage pipeline with a tidy token lifecycle."""
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


def codes_of(report, code):
    return [d for d in report.by_code(code) if not d.suppressed]


class TestTokenLeak:
    """OSM001."""

    def test_definite_leak_is_an_error(self):
        a = SlotManager("A")
        spec = MachineSpec("leak")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a)]), label="enter")
        spec.edge("P", "I", ALWAYS, label="retire")  # forgets Release("A")
        report = lint_spec(spec)
        findings = codes_of(report, "OSM001")
        assert findings and findings[0].severity is Severity.ERROR
        assert findings[0].edge == "retire@1"
        assert "'A'" in findings[0].message
        assert not report.ok

    def test_conditional_leak_is_a_warning(self):
        a = SlotManager("A")
        spec = MachineSpec("mayleak")
        spec.state("I", initial=True)
        spec.state("P")
        # callable identifier: the grant may be skipped at run time
        spec.edge("I", "P", Condition([Allocate(a, ident=lambda op: None)]))
        spec.edge("P", "I", ALWAYS, label="retire")
        report = lint_spec(spec)
        findings = codes_of(report, "OSM001")
        assert findings and findings[0].severity is Severity.WARNING
        assert report.ok  # warnings do not gate

    def test_clean_lifecycle_has_no_leak(self):
        assert not lint_spec(clean_spec()).by_code("OSM001")


class TestVacuousRelease:
    """OSM002."""

    def test_release_of_never_allocated_slot_warns(self):
        a = SlotManager("A")
        spec = MachineSpec("typo")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a)]))
        # "AA" is a typo for "A": vacuously succeeds every time
        spec.edge("P", "I", Condition([Release("AA"), Release("A")]), label="retire")
        report = lint_spec(spec)
        findings = codes_of(report, "OSM002")
        assert findings and findings[0].severity is Severity.WARNING
        assert "'AA'" in findings[0].message

    def test_optional_resource_idiom_not_reported(self):
        # Conditionally allocated slot, unconditionally released: the
        # strongarm m_mul idiom.  Held on at least one path -> silent.
        a = SlotManager("A")
        spec = MachineSpec("optional")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a, ident=lambda op: None)]))
        spec.edge("P", "I", Condition([Release("A")]))
        assert not lint_spec(spec).by_code("OSM002")


class TestDoubleAllocate:
    """OSM003."""

    def test_definite_double_allocate_is_an_error(self):
        a, b = SlotManager("A"), SlotManager("B")
        spec = MachineSpec("double")
        spec.state("I", initial=True)
        spec.state("P")
        spec.state("Q")
        spec.edge("I", "P", Condition([Allocate(a)]))
        # reuses slot "A" while the A token still sits there
        spec.edge("P", "Q", Condition([Allocate(b, slot="A")]), label="clobber")
        spec.edge("Q", "I", Condition([Release("A")]))
        report = lint_spec(spec)
        findings = codes_of(report, "OSM003")
        assert findings and findings[0].severity is Severity.ERROR
        assert findings[0].edge == "clobber@1"

    def test_conditional_double_allocate_is_a_warning(self):
        a, b = SlotManager("A"), SlotManager("B")
        spec = MachineSpec("maydouble")
        spec.state("I", initial=True)
        spec.state("P")
        spec.state("Q")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "Q", Condition([Allocate(b, ident=lambda op: None, slot="A")]))
        spec.edge("Q", "I", Condition([Release("A")]))
        report = lint_spec(spec)
        findings = codes_of(report, "OSM003")
        assert findings and findings[0].severity is Severity.WARNING

    def test_release_then_reallocate_is_fine(self):
        a = SlotManager("A")
        spec = MachineSpec("recycle")
        spec.state("I", initial=True)
        spec.state("P")
        spec.state("Q")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "Q", Condition([Release("A"), Allocate(a)]))
        spec.edge("Q", "I", Condition([Release("A")]))
        assert not lint_spec(spec).by_code("OSM003")


class TestAmbiguousSiblings:
    """OSM004."""

    def test_indistinguishable_same_priority_edges_warn(self):
        a, b = SlotManager("A"), SlotManager("B")
        spec = MachineSpec("ambiguous")
        spec.state("I", initial=True)
        spec.state("P")
        spec.state("Q")
        spec.state("R")
        spec.edge("I", "P", Condition([Allocate(a)]))
        # identical conditions, same priority: declaration order decides
        spec.edge("P", "Q", Condition([Allocate(b), Release("A")]), label="left")
        spec.edge("P", "R", Condition([Allocate(b), Release("A")]), label="right")
        spec.edge("Q", "I", Condition([Release("B")]))
        spec.edge("R", "I", Condition([Release("B")]))
        report = lint_spec(spec)
        findings = codes_of(report, "OSM004")
        assert findings and findings[0].severity is Severity.WARNING
        assert "right@2" in findings[0].message

    def test_guard_distinguished_edges_not_reported(self):
        a, b = SlotManager("A"), SlotManager("B")
        spec = MachineSpec("routed")
        spec.state("I", initial=True)
        spec.state("P")
        spec.state("Q")
        spec.state("R")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "Q", Condition(
            [Guard(lambda op: True, label="is-alu"), Allocate(b), Release("A")]))
        spec.edge("P", "R", Condition(
            [Guard(lambda op: False, label="is-mem"), Allocate(b), Release("A")]))
        spec.edge("Q", "I", Condition([Release("B")]))
        spec.edge("R", "I", Condition([Release("B")]))
        assert not lint_spec(spec).by_code("OSM004")

    def test_distinct_priorities_not_reported(self):
        a = SlotManager("A")
        spec = MachineSpec("prioritised")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "I", Condition([Release("A")]), priority=1)
        spec.edge("P", "I", Condition([Release("A")]))
        assert not lint_spec(spec).by_code("OSM004")


class TestShadowedEdge:
    """OSM005."""

    def test_edge_after_unconditional_sibling_is_dead(self):
        a = SlotManager("A")
        spec = MachineSpec("shadow")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a)]))
        # Discard-only condition never fails, so the reset edge below
        # it in probe order can never fire.
        spec.edge("P", "I", Condition([Discard()]), priority=1, label="flush")
        spec.edge("P", "I", Condition([Release("A")]), label="retire")
        report = lint_spec(spec)
        findings = codes_of(report, "OSM005")
        assert findings and findings[0].severity is Severity.ERROR
        assert findings[0].edge == "retire@2"
        assert "flush@1" in findings[0].message

    def test_unconditional_edge_last_in_probe_order_is_fine(self):
        a = SlotManager("A")
        spec = MachineSpec("fallback")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a)]))
        # normal retirement probes first; unconditional flush is the
        # fallback when it fails -- nothing is shadowed
        spec.edge("P", "I", Condition([Release("A")]), priority=1)
        spec.edge("P", "I", Condition([Discard()]))
        assert not lint_spec(spec).by_code("OSM005")


class TestReachability:
    """OSM006."""

    def test_unreachable_trapping_and_dead_edges(self):
        spec = MachineSpec("broken-graph")
        spec.state("I", initial=True)
        spec.state("Trap")
        spec.state("Island")
        spec.edge("I", "Trap", ALWAYS)
        spec.edge("Island", "I", ALWAYS, label="ghost")
        report = lint_spec(spec)
        findings = report.by_code("OSM006")
        messages = " | ".join(d.message for d in findings)
        assert "'Island' is unreachable" in messages
        assert "'Trap' has no outgoing edges" in messages
        assert any(
            d.edge == "ghost@1" and d.severity is Severity.WARNING
            for d in findings
        )
        assert not report.ok

    def test_clean_graph_has_no_findings(self):
        assert not lint_spec(clean_spec()).by_code("OSM006")


class TestCapacity:
    """OSM007."""

    def test_demand_above_slot_capacity_is_an_error(self):
        a = SlotManager("A")  # capacity 1
        spec = MachineSpec("greedy")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a), Allocate(a, slot="A2")]),
                  label="enter")
        spec.edge("P", "I", Condition([Release("A"), Release("A2")]))
        report = lint_spec(spec)
        findings = codes_of(report, "OSM007")
        assert findings and findings[0].severity is Severity.ERROR
        assert findings[0].edge == "enter@0"
        assert "capacity is 1" in findings[0].message

    def test_pool_with_room_is_fine(self):
        a = PoolManager("A", size=2)
        spec = MachineSpec("pooled")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a), Allocate(a, slot="A2")]))
        spec.edge("P", "I", Condition([Release("A"), Release("A2")]))
        assert not lint_spec(spec).by_code("OSM007")


class TestResourceCycle:
    """OSM008."""

    def test_cyclic_pipeline_warns(self):
        a, b = SlotManager("A"), SlotManager("B")
        spec = MachineSpec("cyclic")
        spec.state("I", initial=True)
        spec.state("P")
        spec.state("Q")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "Q", Condition([Allocate(b)]))
        spec.edge("Q", "P", Condition([Allocate(a, slot="A2"), Release("A")]))
        spec.edge("Q", "I", Condition([Release("A"), Release("B")]))
        report = lint_spec(spec)
        findings = codes_of(report, "OSM008")
        assert findings and findings[0].severity is Severity.WARNING
        assert any("A" in d.message and "B" in d.message for d in findings)

    def test_linear_pipeline_has_no_cycle(self):
        assert not lint_spec(clean_spec()).by_code("OSM008")


class TestSuppression:
    def test_edge_allow_suppresses_but_keeps_the_finding(self):
        a = SlotManager("A")
        spec = MachineSpec("allowed")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "I", ALWAYS, label="retire").allow_lint("OSM001")
        report = lint_spec(spec)
        findings = report.by_code("OSM001")
        assert findings and all(d.suppressed for d in findings)
        assert report.ok
        assert not report.errors

    def test_edge_allow_keyword_form(self):
        a = SlotManager("A")
        spec = MachineSpec("allowed-kw")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "I", ALWAYS, label="retire", allow=("OSM001",))
        assert lint_spec(spec).ok

    def test_spec_allow_suppresses_everywhere(self):
        a, b = SlotManager("A"), SlotManager("B")
        spec = MachineSpec("cyclic-ok")
        spec.state("I", initial=True)
        spec.state("P")
        spec.state("Q")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "Q", Condition([Allocate(b)]))
        spec.edge("Q", "P", Condition([Allocate(a, slot="A2"), Release("A")]))
        spec.edge("Q", "I", Condition([Release("A"), Release("B")]))
        spec.allow_lint("OSM008")
        report = lint_spec(spec)
        assert report.by_code("OSM008")
        assert all(d.suppressed for d in report.by_code("OSM008"))

    def test_suppression_does_not_leak_to_other_edges(self):
        a = SlotManager("A")
        spec = MachineSpec("strict")
        spec.state("I", initial=True)
        spec.state("P")
        spec.state("Q")
        spec.edge("I", "P", Condition([Allocate(a)])).allow_lint("OSM001")
        spec.edge("P", "Q", ALWAYS)
        spec.edge("Q", "I", ALWAYS, label="retire")  # leaks, not allowed here
        report = lint_spec(spec)
        assert codes_of(report, "OSM001")
        assert not report.ok


class TestEngine:
    def test_rule_filter_runs_only_requested_passes(self):
        report = lint_spec(clean_spec(), codes=["OSM001", "OSM006"])
        assert sorted(report.passes_run) == ["OSM001", "OSM006"]

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(ValueError, match="OSM999"):
            lint_spec(clean_spec(), codes=["OSM999"])

    def test_all_passes_recorded_even_when_clean(self):
        report = lint_spec(clean_spec())
        assert report.passes_run == [
            "OSM001", "OSM002", "OSM003", "OSM004",
            "OSM005", "OSM006", "OSM007", "OSM008",
        ]

    def test_report_json_round_trip(self):
        import json

        report = lint_spec(clean_spec())
        payload = json.loads(report.render_json())
        assert payload["spec"] == "clean"
        assert payload["ok"] is True
        assert payload["counts"] == {"error": 0, "warning": 0, "info": 0}
        assert payload["diagnostics"] == []

    def test_diagnostic_render_shape(self):
        a = SlotManager("A")
        spec = MachineSpec("shape")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition([Allocate(a)]))
        spec.edge("P", "I", ALWAYS, label="retire")
        diagnostic = lint_spec(spec).by_code("OSM001")[0]
        assert diagnostic.location == "shape:P:retire@1"
        assert diagnostic.render().startswith(
            "shape:P:retire@1: error: OSM001 (token-leak):"
        )


class TestBufferAnalysis:
    def test_allocate_many_family_released_by_prefix(self):
        pool = PoolManager("R", size=4)
        spec = MachineSpec("family")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition(
            [AllocateMany(pool, idents=lambda op: [1, 2], slot="r")]))
        spec.edge("P", "I", Condition([ReleaseMany("r")]))
        analysis = analyze_buffers(spec)
        assert not analysis.leaks
        report = lint_spec(spec)
        assert not report.by_code("OSM001") and not report.by_code("OSM002")

    def test_inquire_and_guard_leave_the_buffer_alone(self):
        a = SlotManager("A")
        spec = MachineSpec("probe-only")
        spec.state("I", initial=True)
        spec.state("P")
        spec.edge("I", "P", Condition(
            [Inquire(a), Guard(lambda op: True, label="ready"), Allocate(a)]))
        spec.edge("P", "I", Condition([Release("A")]))
        analysis = analyze_buffers(spec)
        assert not analysis.leaks and not analysis.double_allocates

    def test_exploration_is_bounded(self):
        analysis = analyze_buffers(clean_spec(), max_configs=1)
        assert analysis.truncated


class TestBundledModels:
    """Triage commitment: every bundled and ADL-synthesized spec lints
    completely clean — zero errors *and* zero warnings, none suppressed."""

    def test_registry_lists_all_bundled_specs(self):
        assert available_specs() == [
            "adl-pipeline5", "adl-strongarm", "multithread",
            "pipeline5", "ppc750", "strongarm", "vliw",
        ]

    @pytest.mark.parametrize("name", [
        "pipeline5", "strongarm", "vliw", "multithread", "ppc750",
        "adl-pipeline5", "adl-strongarm",
    ])
    def test_bundled_spec_lints_clean(self, name):
        report = lint_spec(build_spec(name))
        assert report.ok, report.render_text()
        assert not report.active, report.render_text()

    def test_unknown_spec_name_raises_with_choices(self):
        with pytest.raises(KeyError, match="pipeline5"):
            build_spec("nonesuch")


class TestSeededBug:
    """Issue acceptance check: dropping one Release primitive from
    pipeline5's retire edge must surface as an OSM001 token leak."""

    def test_dropping_release_from_retire_edge_reports_leak(self):
        spec = build_spec("pipeline5")
        retire = next(e for e in spec.edges if e.label == "retire")
        retire.condition = Condition([
            p for p in retire.condition.primitives
            if not (isinstance(p, Release) and p.slot == "m_w")
        ])
        report = lint_spec(spec)
        assert not report.ok
        leaks = codes_of(report, "OSM001")
        assert leaks and leaks[0].severity is Severity.ERROR
        assert leaks[0].edge == "retire@5"
        assert "'m_w'" in leaks[0].message
