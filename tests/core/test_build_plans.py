"""Build plans: each spec structure's steppers are generated once per process.

The gated build (``enable_fusion``) of a structure records a plan once
its gate has run — the census, and the text, the shared code object and
a binding recipe of walk positions of every function that survived —
and every later build of that structure installs from it.  These tests
pin what makes that exact: a build that reused a plan carries the text
and the bound objects of a from-scratch generation, for every registered
spec and every sweep config of the case studies; everything the text
depends on keys a plan apart; a plan re-installs what its gate demoted;
and a bind no path names keeps its state on the reference rather than
binding it wrongly.
"""

from __future__ import annotations

import pytest

from repro.analysis.registry import available_specs, build_spec
from repro.core import (Allocate, Condition, Director, Guard, Inquire,
                        MachineSpec, OperationStateMachine, Release,
                        SlotManager, defuse_spec, enable_fusion, fuse)
from repro.core.fuse import SlotManagerEmitter, register_native_emitter
from repro.fleet.bench import bench_jobs
from repro.fleet.worker import _BUILDERS
from repro.isa.arm import assemble as asm_arm
from repro.isa.ppc import assemble as asm_ppc

from ..conftest import keyed_toy

PROGRAMS = {
    "strongarm": lambda: asm_arm(".text\n_start:\n mov r0, #0\n swi #0\n"),
    "ppc750": lambda: asm_ppc(".text\n_start:\n li r0, 0\n li r3, 0\n sc\n"),
}


def assert_fresh(spec):
    """Every installed stepper and wake test is what a from-scratch
    generation on *spec* gives: the same text, and the same object in
    every parameter."""
    checked = 0
    for state in spec.states.values():
        if state._fused is None:
            continue
        for fn, generate in ((state._fused, fuse.generate_stepper),
                             (state._wake, fuse.generate_wake)):
            fresh = generate(state, spec)
            assert (fn is None) == (fresh is None), state.name
            if fn is None:
                continue
            assert fn.__fused_source__ == fresh.__fused_source__, state.name
            assert len(fn.__defaults__) == len(fresh.__defaults__), state.name
            assert all(a is b for a, b in zip(fn.__defaults__, fresh.__defaults__)), state.name
            checked += 1
    assert checked


def plan_of(spec) -> str:
    return spec.fuse_certificate["plan"]


# -- reuse is exact -----------------------------------------------------------

@pytest.mark.parametrize("name", available_specs())
def test_registered_spec_reuses_its_plan_exactly(name):
    first = build_spec(name)
    again = build_spec(name)
    assert plan_of(again) == "reused"
    assert again.compile_stats.to_dict() == first.compile_stats.to_dict()
    for field in ("generator", "fused_states", "parked_states"):
        assert again.fuse_certificate[field] == first.fuse_certificate[field]
    assert_fresh(again)
    # the plan's functions are the new build's own, over shared code
    for state in again.states.values():
        if state._fused is not None:
            old = first.states[state.name]._fused
            assert state._fused is not old and state._fused.__code__ is old.__code__


def _sweep_configs(model):
    """Every fleet-bench config of *model*, plus E1's (ppc750: widths,
    fetch-queue depths, rename buffers) or E2's (strongarm: D-cache
    sizes and miss penalties) over their whole ranges."""
    configs = [job["config"] for job in bench_jobs() if job["model"] == model]
    if model == "ppc750":
        configs += [{"perfect_memory": True, "dispatch_width": w, "retire_width": w}
                    for w in (1, 2, 3, 4)]
        configs += [{"perfect_memory": True, "fq_size": n} for n in range(2, 13)]
        configs += [{"perfect_memory": True, "gpr_rename_buffers": n} for n in range(2, 13)]
    else:
        def memory(size, penalty):
            return {"dcache": {"size": size, "line_size": 32, "assoc": 4,
                               "miss_penalty": penalty},
                    "icache": None, "itlb": None, "dtlb": None,
                    "perfect_memory": False}
        configs += [memory(size, 26) for size in (512, 1024, 2048, 4096, 8192)]
        configs += [memory(512, penalty) for penalty in (5, 15, 30, 60)]
    return configs


@pytest.mark.parametrize("model", ["ppc750", "strongarm"])
def test_every_sweep_config_builds_from_one_plan(model):
    program = PROGRAMS[model]()
    configs = _sweep_configs(model)
    census = None
    for config in configs:
        for _ in range(2):
            spec = _BUILDERS[model](program, dict(config)).spec
            assert plan_of(spec) in ("reused", "generated")
            assert_fresh(spec)
            if census is None:
                census = spec.compile_stats.to_dict()
            assert spec.compile_stats.to_dict() == census
        assert plan_of(spec) == "reused", config


# -- what keys a plan apart ---------------------------------------------------

def _lane(osm):
    return osm.tag


def _inline_lane(declaration):
    def lane(osm):
        return osm.tag
    lane.__fuse_inline__ = declaration
    return lane


def _toy(name, *, shared=True, slot="a", value=0, ident=None, key=_lane):
    """``I --enter--> P --leave--> I`` and ``I --side--> Q --back--> I``:
    both entries allocate a slot manager ``S`` (one shared manager, or
    two of that class and name), the first behind a keyed guard."""
    first = SlotManager("S")
    second = first if shared else SlotManager("S")
    spec = MachineSpec(name)
    spec.state("I", initial=True)
    spec.state("P")
    spec.state("Q")
    spec.edge("I", "P", Condition([Guard.equals(key, value, "lane"),
                                   Allocate(first, ident, slot=slot)]),
              priority=1, label="enter")
    spec.edge("I", "Q", Condition([Allocate(second, slot="b")]), label="side")
    spec.edge("P", "I", Condition([Release(slot)]), label="leave")
    spec.edge("Q", "I", Condition([Inquire(first, 3), Release("b")]), label="back")
    return spec


def _built(spec):
    enable_fusion(spec)
    return spec


VARIANTS = {
    "shared manager vs two of one class and name": ({"shared": True}, {"shared": False}),
    "inline declaration": ({"key": _inline_lane("osm.tag")},
                           {"key": _inline_lane("osm.tag + 0")}),
    "slot name": ({"slot": "a"}, {"slot": "z"}),
    "static ident": ({"ident": 1}, {"ident": 2}),
    "keyed-guard value": ({"value": 0}, {"value": 1}),
    "float keyed-guard value": ({"value": 0.5}, {"value": 1.5}),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_what_the_text_depends_on_misses(variant):
    """The first spec's plan exists (its second build reuses it); the
    variant, of the same edges, managers, labels and functions, misses
    and generates text equal to a fresh generation, every state fused."""
    base, other = VARIANTS[variant]
    name = "plan-key-" + variant.replace(" ", "-")
    _built(_toy(name, **base))
    assert plan_of(_built(_toy(name, **base))) == "reused"
    spec = _built(_toy(name, **other))
    assert plan_of(spec) == "generated"
    assert spec.compile_stats.fallback_states == []
    assert_fresh(spec)
    texts = {state.name: state._fused.__fused_source__
             for state in spec.states.values() if state._fused is not None}
    before = _toy(name, **base)
    fuse.fuse_spec(before)
    assert texts != {state.name: state._fused.__fused_source__
                     for state in before.states.values() if state._fused is not None}


def test_the_plan_table_is_bounded():
    for n in range(fuse.MAX_PLANS + 1):
        _built(_toy(f"plan-bound-{n}"))
    assert len(fuse._PLANS) == fuse.MAX_PLANS
    last = _built(_toy(f"plan-bound-{fuse.MAX_PLANS}"))
    assert plan_of(last) == "reused"
    oldest = _built(_toy("plan-bound-0"))  # evicted, least recently used
    assert plan_of(oldest) == "generated"


class _TaggedSlotEmitter(SlotManagerEmitter):
    """The slot grant, written as a branch instead of a conditional
    expression: the same behaviour, other text."""

    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        tok = g.bind_field("slot_tok", mgr, "token")
        w(f"{out} = None")
        with w.block(f"if {fuse.grantable(tok, avoid)}:"):
            w(f"{out} = {tok}")


def test_registering_an_emitter_again_misses():
    name = "plan-key-emitter"
    original = fuse._EMITTERS[SlotManager]
    old = _built(_toy(name))
    assert plan_of(_built(_toy(name))) == "reused"
    try:
        register_native_emitter(SlotManager, _TaggedSlotEmitter())
        spec = _built(_toy(name))
        assert plan_of(spec) == "generated"
        assert_fresh(spec)
        assert spec.states["I"]._fused.__fused_source__ != \
            old.states["I"]._fused.__fused_source__
    finally:
        register_native_emitter(SlotManager, original)
    assert plan_of(_built(_toy(name))) == "generated"


def _two_slots(name, shared_token):
    """I enters P through slot manager s1 or Q through s2; with
    *shared_token* both managers hand out one token object."""
    first, second = SlotManager("s1"), SlotManager("s2")
    if shared_token:
        second.token = first.token
    spec = MachineSpec(name)
    spec.state("I", initial=True)
    spec.state("P")
    spec.state("Q")
    spec.edge("I", "P", Condition([Allocate(first, slot="a")]), priority=1, label="p")
    spec.edge("I", "Q", Condition([Allocate(second, slot="b")]), label="q")
    spec.edge("P", "I", Condition([Release("a")]), label="leave-p")
    spec.edge("Q", "I", Condition([Release("b")]), label="leave-q")
    return spec


@pytest.mark.parametrize("shared_first", [True, False], ids=["shared-first", "apart-first"])
def test_members_shared_otherwise_miss(shared_first):
    """Which manager members are one object is not in the structure:
    a plan checks it when it installs, and a build whose members are
    shared otherwise generates its own text."""
    name = f"plan-members-{shared_first}"
    _built(_two_slots(name, shared_first))
    assert plan_of(_built(_two_slots(name, shared_first))) == "reused"
    other = _built(_two_slots(name, not shared_first))
    assert plan_of(other) == "generated"
    assert_fresh(other)


# -- an unnamed bind ----------------------------------------------------------

class _Gate:
    def __init__(self):
        self.open = True


class _GatedSlot(SlotManager):
    """A slot manager that grants only while its gate is open."""

    def __init__(self, name, gate):
        super().__init__(name)
        self.gate = gate

    def allocate(self, osm, ident, txn):
        return super().allocate(osm, ident, txn) if self.gate.open else None


class _GatedSlotEmitter(SlotManagerEmitter):
    """Binds the gate as a plain object, so no path names it."""

    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        gate = g.bind("gate", mgr.gate)
        w(f"{out} = None")
        with w.block(f"if {gate}.open:"):
            super().allocate(g, w, mgr, out, ident_expr, avoid)


class _NamedGateEmitter(SlotManagerEmitter):
    """:class:`_GatedSlotEmitter` naming the gate as a member."""

    def allocate(self, g, w, mgr, out, ident_expr, avoid):
        gate = g.bind_field("gate", mgr, "gate")
        w(f"{out} = None")
        with w.block(f"if {gate}.open:"):
            super().allocate(g, w, mgr, out, ident_expr, avoid)


def _gated(gate, name="plan-unnamed"):
    spec = MachineSpec(name)
    spec.state("I", initial=True)
    spec.state("A")
    spec.state("B")
    spec.edge("I", "A", Condition([Allocate(_GatedSlot("a", gate))]))
    spec.edge("A", "B", Condition([Allocate(SlotManager("b")), Release("a")]))
    spec.edge("B", "I", Condition([Release("b")]))
    return spec


def _trace(spec, gate, reference):
    director = Director()
    director.reference = reference
    osms = [OperationStateMachine(spec) for _ in range(3)]
    director.add(*osms)
    trace = []
    director.trace = lambda clock, osm, edge: trace.append(
        (clock, osms.index(osm), edge.label))
    for step in range(24):
        gate.open = step % 3 != 1
        director.control_step()
    return trace, [osm.current.name for osm in osms]


def test_an_unnamed_bind_keeps_its_state_on_the_reference(monkeypatch):
    """The emitter binds its manager's gate as a plain object, which no
    path names: generating state I fails, so I runs the reference, the
    census names the bind, and the build runs exactly like the reference
    loop.  A rebuild reuses the plan, census and all."""
    monkeypatch.setattr(fuse, "_EMITTERS", dict(fuse._EMITTERS))
    register_native_emitter(_GatedSlot, _GatedSlotEmitter())
    gate = _Gate()
    spec = _built(_gated(gate))
    assert spec.states["I"]._fused is None
    assert "binds 'gate' by no path" in spec.compile_stats.states["I"]
    assert spec.compile_stats.fallback_states == [("I", spec.compile_stats.states["I"])]
    fused = _trace(spec, gate, reference=False)

    again_gate = _Gate()
    again = _built(_gated(again_gate))
    assert plan_of(again) == "reused"
    assert again.compile_stats.to_dict() == spec.compile_stats.to_dict()
    assert_fresh(again)

    oracle_gate = _Gate()
    oracle = _gated(oracle_gate)
    defuse_spec(oracle)
    assert fused == _trace(oracle, oracle_gate, reference=True)
    assert fused[0], "the ring moved"


def _aliased(gate, member):
    """State I inquires of a slot manager with *gate* as its static
    identifier, then allocates a gated slot whose gate is *member*."""
    spec = MachineSpec("plan-aliased")
    spec.state("I", initial=True)
    spec.state("A")
    spec.edge("I", "A", Condition([Inquire(SlotManager("c"), gate),
                                   Allocate(_GatedSlot("a", member))]))
    spec.edge("A", "I", Condition([Release("a")]))
    return spec


def test_a_plain_bind_never_names_an_object_by_where_else_it_is(monkeypatch):
    """The emitter binds its manager's gate as a plain object.  In the
    first spec that gate is also a spec operand, which the structural
    key cannot tell from a spec where it is not: naming the bind by the
    operand's walk position would bind the second spec's operand in
    place of its gate.  So state I runs the reference in both builds,
    the census names the bind, and each runs like the reference loop."""
    monkeypatch.setattr(fuse, "_EMITTERS", dict(fuse._EMITTERS))
    register_native_emitter(_GatedSlot, _GatedSlotEmitter())
    gate = _Gate()
    first = _built(_aliased(gate, gate))
    member = _Gate()
    second = _built(_aliased(_Gate(), member))
    assert plan_of(second) == "reused"
    for spec in (first, second):
        assert spec.states["I"]._fused is None
        assert "binds 'gate' by no path" in spec.compile_stats.states["I"]
    assert_fresh(second)
    oracle_member = _Gate()
    oracle = _aliased(_Gate(), oracle_member)
    defuse_spec(oracle)
    trace = _trace(second, member, reference=False)
    assert trace == _trace(oracle, oracle_member, reference=True)
    assert trace[0], "the ring moved"


def test_registering_a_new_class_misses(monkeypatch):
    """Before its class has an emitter, state I runs the reference; a
    build after the registration must not reuse that plan."""
    monkeypatch.setattr(fuse, "_EMITTERS", dict(fuse._EMITTERS))
    name = "plan-new-class"
    before = _built(_gated(_Gate(), name))
    assert before.states["I"]._fused is None
    assert plan_of(_built(_gated(_Gate(), name))) == "reused"
    register_native_emitter(_GatedSlot, _NamedGateEmitter())
    after = _built(_gated(_Gate(), name))
    assert plan_of(after) == "generated"
    assert after.states["I"]._fused is not None
    assert_fresh(after)
    assert plan_of(_built(_gated(_Gate(), name))) == "reused"


# -- the plan is recorded after the gate ----------------------------------------

def test_a_plan_reinstalls_what_its_gate_demoted(fresh_plans, monkeypatch):
    """A build whose gate demoted a stepper and dropped a wake test
    records that census in its plan: a rebuild installs exactly it, with
    no analysis run (each is patched to raise)."""
    real_stepper, real_wake = fuse.generate_stepper, fuse.generate_wake

    def stepper(state, spec, *args):
        fn = real_stepper(state, spec, *args)
        if state.name == "I":
            fn.__fused_source__ = fn.__fused_source__.replace(
                "osm.n_transitions += 1", "pass", 1)
        return fn

    def wake(state, spec, *args):
        fn = real_wake(state, spec, *args)
        if fn is not None and state.name == "P":
            fn.__fused_source__ = fn.__fused_source__.replace(
                "return True", "return False", 1)
        return fn

    def analysis(*args, **kwargs):
        raise AssertionError("a reusing build ran an analysis")

    from repro.analysis import certify, effects

    with fresh_plans(generate_stepper=stepper, generate_wake=wake):
        first = _built(keyed_toy(3, "g"))
        stats = first.compile_stats
        assert dict(stats.demoted_states).keys() == {"I"}
        assert dict(stats.unparked_states).keys() == {"P"}
        monkeypatch.setattr(effects, "compilability_report", analysis)
        monkeypatch.setattr(certify, "certify_fused_states", analysis)
        monkeypatch.setattr(certify, "certify_wake_tests", analysis)
        again = _built(keyed_toy(3, "g"))
    assert (plan_of(again), again.fuse_certificate["verdict"]) == ("reused", "cache")
    assert again.compile_stats.to_dict() == stats.to_dict()
    assert again.fuse_certificate == first.fuse_certificate | {"plan": "reused",
                                                               "verdict": "cache"}
    assert again.states["I"]._fused is None
    assert again.states["P"]._fused is not None and again.states["P"]._wake is None
