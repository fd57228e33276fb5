"""Closed token systems through the model checker's ground-truth entry
point, :func:`repro.analysis.check.check_system`.

``reduction=False`` explores every interleaving (every director
schedule); a configuration in which no OSM can ever fire again is a
CHK004 (deadlock) finding.
"""

from repro.analysis.check import check_system
from repro.core import (
    ALWAYS,
    Allocate,
    Condition,
    MachineSpec,
    PoolManager,
    Release,
    SlotManager,
)


def linear_pipeline():
    """The Section-4 skeleton: I -> A -> B -> I over slot managers."""
    a, b = SlotManager("a"), SlotManager("b")
    spec = MachineSpec("linear")
    spec.state("I", initial=True)
    spec.state("A")
    spec.state("B")
    spec.edge("I", "A", Condition([Allocate(a)]))
    spec.edge("A", "B", Condition([Allocate(b), Release("a")]))
    spec.edge("B", "I", Condition([Release("b")]))
    spec.validate()
    return spec, [a, b]


def leaky_machine():
    """Deliberate bug: returns to I while still holding a token."""
    pool = PoolManager("p", 2)
    spec = MachineSpec("leaky")
    spec.state("I", initial=True)
    spec.state("S")
    spec.edge("I", "S", Condition([Allocate(pool)]))
    spec.edge("S", "I", ALWAYS)  # forgot the release
    spec.validate()
    return spec, [pool]


def trap_machine():
    """Deliberate bug: a state with no way back to I."""
    slot = SlotManager("s")
    spec = MachineSpec("trap")
    spec.state("I", initial=True)
    spec.state("Stuck")
    spec.edge("I", "Stuck", Condition([Allocate(slot)]))
    # no edge out of Stuck
    return spec, [slot]


def crossing_machine():
    """Two resources acquired in opposite orders by the two machine
    roles — the classic hold-and-wait deadlock."""
    a, b = SlotManager("a"), SlotManager("b")
    spec = MachineSpec("crossing")
    spec.state("I", initial=True)
    spec.state("HoldA")
    spec.state("HoldB")
    spec.state("Both")
    spec.edge("I", "HoldA", Condition([Allocate(a)]))
    spec.edge("I", "HoldB", Condition([Allocate(b)]))
    spec.edge("HoldA", "Both", Condition([Allocate(b, slot="b2")]))
    spec.edge("HoldB", "Both", Condition([Allocate(a, slot="a2")]))
    spec.edge("Both", "I", Condition([Release("a"), Release("b"),
                                      Release("a2"), Release("b2")]))
    spec.validate()
    return spec, [a, b]


class TestModelCheck:
    def test_linear_pipeline_is_safe(self):
        spec, managers = linear_pipeline()
        report = check_system(spec, managers, n_osms=3, reduction=False)
        assert report.ok
        assert report.n_states > 3

    def test_all_orders_explores_more_than_one_schedule(self):
        spec, managers = linear_pipeline()
        single = check_system(spec, managers, n_osms=3, reduction=True)
        spec, managers = linear_pipeline()
        every = check_system(spec, managers, n_osms=3, reduction=False)
        assert every.n_transitions >= single.n_transitions

    def test_leak_detected_as_violation(self):
        # the OSM layer refuses buffer-carrying returns to I at commit
        # time; the checker reports that as a violation with a trace
        spec, managers = leaky_machine()
        report = check_system(spec, managers, n_osms=1, reduction=False)
        assert not report.ok
        assert any("still holding" in d.message for d in report.diagnostics)

    def test_trap_state_reported(self):
        spec, managers = trap_machine()
        report = check_system(spec, managers, n_osms=1, reduction=False)
        assert not report.ok
        assert report.by_code("CHK004")

    def test_crossing_deadlock_found_by_exhaustive_search(self):
        """With 2 OSMs, one order reaches (HoldA, HoldB): both stuck."""
        spec, managers = crossing_machine()
        report = check_system(spec, managers, n_osms=2, reduction=False)
        (deadlock,) = report.by_code("CHK004")  # the deadlocked configuration
        assert deadlock.state is not None and deadlock.trace is not None
        # and the static analysis agrees there is a cycle
        from repro.analysis.lint.graph import analyze_deadlock

        spec, _ = crossing_machine()
        assert not analyze_deadlock(spec).deadlock_free

    def test_single_osm_cannot_deadlock_the_crossing(self):
        spec, managers = crossing_machine()
        report = check_system(spec, managers, n_osms=1, reduction=False)
        assert not report.by_code("CHK004")

    def test_truncation_reported(self):
        spec, managers = linear_pipeline()
        report = check_system(spec, managers, n_osms=4, reduction=False,
                              max_states=5)
        assert report.truncated
        assert not report.ok
