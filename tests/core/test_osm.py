"""Tests for MachineSpec and OperationStateMachine."""

import pytest

from repro.analysis.certify import certify_fused_states
from repro.core import (
    ALWAYS,
    Allocate,
    Condition,
    Guard,
    MachineSpec,
    OperationStateMachine,
    Primitive,
    Release,
    SlotManager,
    SpecError,
    TokenError,
    fuse_spec,
)


class TestMachineSpec:
    def test_duplicate_initial_state_rejected(self):
        spec = MachineSpec("m")
        spec.state("I", initial=True)
        with pytest.raises(SpecError, match="two initial states"):
            spec.state("J", initial=True)

    def test_edge_to_unknown_state_rejected(self):
        spec = MachineSpec("m")
        spec.state("I", initial=True)
        with pytest.raises(SpecError, match="unknown state"):
            spec.edge("I", "missing", ALWAYS)

    def test_validate_requires_initial(self):
        spec = MachineSpec("m")
        spec.state("A")
        with pytest.raises(SpecError, match="no initial state"):
            spec.validate()

    def test_validate_rejects_unreachable_states(self):
        spec = MachineSpec("m")
        spec.state("I", initial=True)
        spec.state("A")
        spec.state("Island")
        spec.edge("I", "A", ALWAYS)
        with pytest.raises(SpecError, match="unreachable"):
            spec.validate()

    def test_state_is_idempotent(self):
        spec = MachineSpec("m")
        first = spec.state("I", initial=True)
        again = spec.state("I")
        assert first is again

    def test_out_edges_sorted_by_priority(self):
        spec = MachineSpec("m")
        spec.state("I", initial=True)
        spec.state("A")
        low = spec.edge("I", "A", ALWAYS, priority=1)
        high = spec.edge("I", "A", ALWAYS, priority=9)
        mid = spec.edge("I", "A", ALWAYS, priority=5)
        assert spec.states["I"].out_edges == [high, mid, low]

    def test_equal_priority_keeps_declaration_order(self):
        spec = MachineSpec("m")
        spec.state("I", initial=True)
        spec.state("A")
        first = spec.edge("I", "A", ALWAYS, label="first")
        second = spec.edge("I", "A", ALWAYS, label="second")
        assert spec.states["I"].out_edges == [first, second]

    def test_instantiation_requires_initial(self):
        spec = MachineSpec("m")
        spec.state("A")
        with pytest.raises(SpecError):
            OperationStateMachine(spec)


class TestOperationStateMachine:
    def _simple(self):
        spec = MachineSpec("m")
        spec.state("I", initial=True)
        spec.state("S")
        manager = SlotManager("m_s")
        spec.edge("I", "S", Condition([Allocate(manager)]))
        from repro.core import Release

        spec.edge("S", "I", Condition([Release("m_s")]))
        return spec, manager

    def test_age_stamped_on_leaving_initial(self):
        spec, _ = self._simple()
        osm = OperationStateMachine(spec)
        assert osm.age == -1
        osm.try_transition(17)
        assert osm.age == 17

    def test_age_and_operation_cleared_on_return_to_initial(self):
        spec, _ = self._simple()
        osm = OperationStateMachine(spec)
        osm.try_transition(1)
        osm.operation = object()
        osm.try_transition(2)
        assert osm.in_initial
        assert osm.operation is None
        assert osm.age == -1

    def test_return_to_initial_with_tokens_is_a_model_bug(self):
        spec = MachineSpec("m")
        spec.state("I", initial=True)
        spec.state("S")
        manager = SlotManager("m_s")
        spec.edge("I", "S", Condition([Allocate(manager)]))
        spec.edge("S", "I", ALWAYS)  # forgets to release!
        osm = OperationStateMachine(spec)
        osm.try_transition(0)
        with pytest.raises(TokenError, match="still holding"):
            osm.try_transition(1)

    def test_action_and_on_enter_hooks_fire_in_order(self):
        calls = []
        spec = MachineSpec("m")
        spec.state("I", initial=True)
        spec.state("S", on_enter=lambda o: calls.append("enter"))
        spec.edge("I", "S", ALWAYS, action=lambda o: calls.append("action"))
        osm = OperationStateMachine(spec)
        osm.try_transition(0)
        assert calls == ["action", "enter"]

    def test_token_accessor(self):
        spec, manager = self._simple()
        osm = OperationStateMachine(spec)
        with pytest.raises(TokenError):
            osm.token("m_s")
        osm.try_transition(0)
        assert osm.token("m_s") is manager.token
        assert osm.holds("m_s")
        assert osm.slot_of(manager.token) == "m_s"

    def test_at_most_one_transition_per_call(self):
        spec, manager = self._simple()
        osm = OperationStateMachine(spec)
        edge = osm.try_transition(0)
        assert edge.dst.name == "S"  # did not continue S -> I in one call

    def test_unique_names(self):
        spec, _ = self._simple()
        a, b = OperationStateMachine(spec), OperationStateMachine(spec)
        assert a.name != b.name
        assert a.serial != b.serial


class Turnstile(Primitive):
    """A custom primitive: refuses, noting where the OSM waits, until its
    owner opens it."""

    kind = "turnstile"

    def __init__(self):
        self.open = False

    def probe(self, osm, txn) -> bool:
        if not self.open:
            osm.note_blocked_on(self, "turnstile")
            return False
        return True


class TestCustomPrimitive:
    @staticmethod
    def _step(osm, clock):
        stepper = osm.current._fused
        if stepper is not None:
            return stepper(osm, clock)
        return osm.try_transition(clock)

    def test_custom_primitive_probes_in_place_on_both_paths(self):
        """A custom primitive keeps its own ``probe``: no emitter can
        express it, so its state runs the interpreted reference in a
        fused spec too, and the fusion census names the primitive."""
        for fused in (False, True):
            gate, stage = Turnstile(), SlotManager("S")
            spec = MachineSpec("custom")
            spec.state("I", initial=True)
            spec.state("P")
            spec.edge("I", "P", Condition([gate, Allocate(stage)]), label="enter")
            spec.edge("P", "I", Condition([Release("S")]), label="leave")
            if fused:
                assert fuse_spec(spec) == 1
                assert spec.states["I"]._fused is None
                reason = dict(spec.compile_stats.fallback_states)["I"]
                assert "custom primitive Turnstile" in reason
                assert certify_fused_states(spec) == []
            osm = OperationStateMachine(spec)
            assert self._step(osm, 0) is None
            assert osm.blocked_on == (gate, "turnstile")
            assert stage.token.holder is None
            gate.open = True
            assert self._step(osm, 1).label == "enter"
            assert osm.holds("S") and osm.blocked_on is None
            assert self._step(osm, 2).label == "leave"
            assert osm.in_initial and not osm.token_buffer


def _lane(osm):
    return osm.tag


_lane.__fuse_inline__ = "osm.tag"


class TestKeyedGuard:
    """``Guard.equals(key, value)`` holds iff ``key(osm) == value``."""

    @staticmethod
    def _spec():
        spec = MachineSpec("keyed")
        spec.state("I", initial=True)
        spec.state("P")
        # lane 0: a pasted key; lane 1: a key without __fuse_inline__
        spec.edge("I", "P", Condition([Guard.equals(_lane, 0, "lane-0"),
                                       Allocate(SlotManager("A"))]),
                  label="enter-0")
        spec.edge("I", "P", Condition([Guard.equals(lambda osm: osm.tag, 1, "lane-1"),
                                       Allocate(SlotManager("B"))]),
                  label="enter-1")
        spec.edge("P", "I", Condition([Release("A")]), label="leave-0")
        spec.edge("P", "I", Condition([Release("B")]), label="leave-1")
        return spec

    def test_keyed_guard_routes_alike_on_both_paths(self):
        for fused in (False, True):
            spec = self._spec()
            if fused:
                assert fuse_spec(spec) == 2
                assert certify_fused_states(spec) == []
            for tag in (0, 1, 2):
                osm = OperationStateMachine(spec, tag=tag)
                edge = TestCustomPrimitive._step(osm, 0)
                assert (edge.label if edge else None) == \
                    {0: "enter-0", 1: "enter-1", 2: None}[tag]
                assert osm.blocked_on is None

    def test_fused_stepper_tests_the_key_inline(self):
        spec = self._spec()
        fuse_spec(spec)
        source = spec.states["I"]._fused.__fused_source__
        assert "if (osm.tag) != 0:" in source  # the pasted key
        assert "(osm) != 1:" in source  # the bound key, called in place
        assert certify_fused_states(spec) == []
