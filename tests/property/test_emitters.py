"""Differential test of the native manager emitters.

Emitters are trusted code: transcheck (TRV001) replays the manager
bodies they paste into fused steppers only as vocabulary zones.  This
test checks their logic.  For every registered emitter class it builds a
small spec twice — fused, and on the interpreted reference
(``try_transition``) — and drives the same random token traffic through
both in lockstep: allocate, allocate-many, inquire, release, discard,
holds, new cycles, producer ``done`` flips and dooms.  After every
action it compares the edge taken (or the error raised), ``blocked_on``,
token holders and values, token buffers, and every manager's counters
and internal bookkeeping.

The wake tests (:func:`repro.core.fuse.generate_wake`) get the same
treatment, one small spec per park-point kind: whenever a fused state's
wake test returns False, the reference copy's probe must fail and write
the same ``blocked_on``, and the wake test must change nothing else.
"""

from hypothesis import HealthCheck, Phase, given, settings, strategies as st
import pytest

from repro.analysis.certify import certify_fused_states, certify_wake_tests
from repro.core import (
    ALWAYS,
    Allocate,
    AllocateMany,
    Condition,
    Discard,
    Guard,
    InOrderPoolManager,
    Inquire,
    MachineSpec,
    OperationStateMachine,
    PoolManager,
    RegisterFileManager,
    Release,
    ReleaseMany,
    ResetManager,
    SlotManager,
    Token,
    TokenManager,
    fuse,
    fuse_spec,
)
from repro.models.common import FetchUnit, _FetchSlotManager
from repro.models.ppc750.managers import RegisterRenameManager
from repro.models.strongarm.managers import ForwardingRegisterFileManager

N_OSMS = 3


class Op:
    """An operation payload: register identifiers, captured producers
    and a completion flag."""

    __slots__ = ("seq", "src", "dst", "reg", "deps", "done")

    def __init__(self, seq, src, dst, reg, deps):
        self.seq = seq
        self.src = src
        self.dst = dst
        self.reg = reg
        self.deps = deps
        self.done = False

    def __repr__(self) -> str:
        return f"Op#{self.seq}"


class Backing:
    def __init__(self, n_regs):
        self.values = [0] * n_regs

    def write(self, reg, value):
        self.values[reg] = value


def has_op(osm):
    return osm.operation is not None


def src_of(osm):
    return osm.operation.src


def dst_of(osm):
    return osm.operation.dst


def reg_of(osm):
    return osm.operation.reg


def deps_of(osm):
    return osm.operation.deps


def seq_value(osm):
    return osm.operation.seq


def token_value(osm, token):
    return token.index * 10 + osm.operation.seq


# wake-test guard keys: one called, one pasted inline
def lane_of(osm):
    return osm.operation.seq % 2


def tag_of(osm):
    return osm.tag


tag_of.__fuse_inline__ = "osm.tag"


# -- one small spec per emitter class -----------------------------------------
#
# Each builder returns the managers it made (the first is the one under
# test) and the out-edges of the three-state spec I -> A -> B -> I as
# ``{(src, dst): [condition primitives, ...]}`` in priority order.  Every
# spec also gets reset edges A -> I and B -> I (an inquiry of the world's
# reset manager, then a full discard).

def _slot(world):
    m, m2 = SlotManager("s"), SlotManager("t")
    return [m, m2], {
        ("I", "A"): [[Guard(has_op), Allocate(m, slot="s")],
                     [Guard(has_op), Allocate(m2, slot="t"), Allocate(m2, slot="t2")]],
        ("A", "B"): [[Inquire(m2), Allocate(m2, slot="t"), Release("s")]],
        ("B", "I"): [[Release("t")]],
    }


def _pool(world):
    m = PoolManager("p", 3)
    return [m], {
        ("I", "A"): [[Guard(has_op), Allocate(m, slot="p"),
                      AllocateMany(m, dst_of, "q")]],
        ("A", "B"): [[Allocate(m, slot="r"), Inquire(m), Release("p")]],
        ("B", "I"): [[Release("r"), ReleaseMany("q")]],
    }


def _in_order_pool(world):
    m, m2 = InOrderPoolManager("o", 3, 2), InOrderPoolManager("c", 2, 1)
    return [m, m2], {
        ("I", "A"): [[Guard(has_op), Allocate(m, slot="o")]],
        ("A", "B"): [[Inquire(m2), Allocate(m2, slot="c"), Release("o")]],
        ("B", "I"): [[Release("c")]],
    }


def _register_file(world, cls=RegisterFileManager):
    if cls is RegisterFileManager:
        m = cls("r", 4, Backing(4), updates_per_reg=2, n_update_tokens=3)
    else:
        m = cls("r", 4, Backing(4))
    return [m], {
        ("I", "A"): [[Guard(has_op), Inquire(m, src_of), AllocateMany(m, dst_of, "u")]],
        ("A", "B"): [[Inquire(m, reg_of), Allocate(m, reg_of, slot="w")]],
        ("B", "I"): [[Release("w", value=seq_value), ReleaseMany("u", value=token_value)]],
    }


def _forwarding_register_file(world):
    return _register_file(world, ForwardingRegisterFileManager)


def _reset(world):
    m = SlotManager("s")
    return [world.reset, m], {
        ("I", "A"): [[Guard(has_op), Inquire(world.reset), Allocate(m, slot="s")],
                     [Guard(has_op), Allocate(world.reset, slot="never")],
                     [Guard(has_op), Allocate(m, slot="s")]],
        ("A", "B"): [[Release("s")]],
        ("B", "I"): [[]],
    }


def _fetch_slot(world):
    unit = FetchUnit(lambda pc: None, 0)
    world.fetch = unit
    m = unit.manager
    return [m], {
        ("I", "A"): [[Guard(has_op), Allocate(m, slot="f")]],
        ("A", "B"): [[Release("f")]],
        ("B", "I"): [[Inquire(m)]],
    }


def _register_rename(world):
    m = RegisterRenameManager(gpr_buffers=2)
    return [m], {
        ("I", "A"): [[Guard(has_op), Inquire(m, src_of), AllocateMany(m, dst_of, "ren")]],
        ("A", "B"): [[Inquire(m, deps_of), Allocate(m, reg_of, slot="one")]],
        ("B", "I"): [[ReleaseMany("ren"), Release("one")]],
    }


#: manager class -> (spec builder, register identifiers drawn by index)
CASES = {
    SlotManager: (_slot, (0,)),
    PoolManager: (_pool, (0,)),
    InOrderPoolManager: (_in_order_pool, (0,)),
    RegisterFileManager: (_register_file, (0, 1, 2, 3, 0, 1, None, 2)),
    ResetManager: (_reset, (0,)),
    _FetchSlotManager: (_fetch_slot, (0,)),
    ForwardingRegisterFileManager: (_forwarding_register_file, (0, 1, 2, 3, 0, 1, 2, 3)),
    # 40 and "x" take the rename allocate's two TokenError raises
    RegisterRenameManager: (_register_rename, (0, 1, 0, 1, 32, 34, 40, "x")),
}


class World:
    """One copy of a case: managers, spec and OSMs, fused or not."""

    def __init__(self, case, fused: bool):
        build, self.regs = case
        self.fused = fused
        self.fetch = None
        self.reset = ResetManager()
        self.managers, edges = build(self)
        if self.reset not in self.managers:
            self.managers.append(self.reset)
        spec = MachineSpec("emitter")
        for name in "IAB":
            spec.state(name, initial=(name == "I"))
        for (src, dst), conditions in edges.items():
            for primitives in conditions:
                spec.edge(src, dst, Condition(primitives) if primitives else ALWAYS)
        for name in getattr(build, "resets", "AB"):
            spec.edge(name, "I", Condition([Inquire(self.reset), Discard()]),
                      priority=10, label=f"reset-{name}")
        spec.validate()
        if fused:
            assert fuse_spec(spec) == len(spec.states), spec.compile_stats.fallback_states
        self.spec = spec
        self.osms = [OperationStateMachine(spec, name=f"osm{i}", tag=i)
                     for i in range(N_OSMS)]
        self.ops = []
        self.clock = 0
        self.tokens = sorted(
            {id(t): t for m in self.managers for t in _tokens(vars(m))}.values(),
            key=lambda t: t.name)

    # -- traffic -----------------------------------------------------------

    def step(self, index):
        osm = self.osms[index]
        try:
            if self.fused:
                edge = osm.current._fused(osm, self.clock)
            else:
                edge = osm.try_transition(self.clock)
        except Exception as exc:  # both paths must fail alike
            return ("raise", type(exc).__name__, str(exc))
        return ("edge", None if edge is None else edge.qualname)

    def apply(self, action):
        kind, a, b, c, d = action
        osm = self.osms[a % N_OSMS]
        if kind == "step":
            return self.step(a % N_OSMS)
        in_flight = [o.operation for o in self.osms if o.operation is not None]
        if kind == "load" and osm.operation is None:
            # captured producers: operations now in flight
            deps = tuple(in_flight[i % len(in_flight)] for i in d) if in_flight else ()
            regs = self.regs
            osm.operation = Op(len(self.ops), tuple(regs[i % len(regs)] for i in b),
                               tuple(regs[i % len(regs)] for i in c),
                               regs[a % len(regs)], deps)
            self.ops.append(osm.operation)
        elif kind == "cycle":
            self.clock += 1
            self.reset.latch()
            for m in self.managers:
                if isinstance(m, InOrderPoolManager):
                    m.new_cycle()
        elif kind == "hold":
            holdable = [m for m in self.managers if hasattr(m, "hold_release")]
            if holdable:
                holdable[a % len(holdable)].hold_release = bool(b)
        elif kind == "done" and in_flight:
            in_flight[a % len(in_flight)].done = True
        elif kind == "doom":
            (self.reset.doom_now if b else self.reset.doom)(osm)
        elif kind == "retag":
            # a keyed-guard key changes: a model's keys are fixed fields
            # of the operation, so this write stands for a new key and,
            # like every write a wake test reads, it must wake the OSM
            osm.tag = (b + [a])[0] % 3
            osm._asleep = False
        elif kind == "poke":
            for m in self.managers:
                if isinstance(m, ForwardingRegisterFileManager):
                    m.mark_ready(a % m.n_regs, osm if b else None)
            if self.fetch is not None:
                self.fetch.halted = bool(b and c)
                self.fetch._redirect_pending = 0x100 if b and not c else None
        return None

    # -- comparison --------------------------------------------------------

    def snapshot(self, asleep=False):
        by_id = {id(osm): osm.name for osm in self.osms}

        def norm(obj):
            if obj is None or isinstance(obj, (bool, int, str)):
                return obj
            if isinstance(obj, OperationStateMachine):
                return ("osm", obj.name)
            if isinstance(obj, Op):
                return ("op", obj.seq)
            if isinstance(obj, Token):
                return ("token", obj.name)
            if isinstance(obj, TokenManager):
                return ("manager", obj.name)
            if isinstance(obj, Backing):
                return ("backing", obj.values)
            if isinstance(obj, dict) and obj and all(
                    isinstance(v, OperationStateMachine) and k == id(v)
                    for k, v in obj.items()):  # pending dooms: id -> OSM
                return sorted(v.name for v in obj.values())
            if isinstance(obj, dict):
                return sorted((repr(norm(k)), norm(v)) for k, v in obj.items())
            if isinstance(obj, (list, tuple)):
                return [norm(x) for x in obj]
            if isinstance(obj, set):  # OSM ids (reset manager dooms)
                return sorted(by_id[x] for x in obj)
            if isinstance(obj, FetchUnit):
                return ("fetch", obj.halted, obj._redirect_pending)
            raise TypeError(f"no snapshot for {type(obj).__name__}")

        return {
            "osms": [(osm.name, osm.tag, osm.current.name, norm(osm.token_buffer),
                      norm(osm.blocked_on), osm.n_transitions, osm.age,
                      norm(osm.operation),
                      None if osm.last_edge is None else osm.last_edge.qualname)
                     + ((osm._asleep,) if asleep else ())
                     for osm in self.osms],
            "tokens": [(t.name, norm(t.holder), norm(t.value)) for t in self.tokens],
            "managers": [sorted((k, norm(v)) for k, v in vars(m).items())
                         for m in self.managers],
            "ops": [(op.seq, op.done) for op in self.ops],
        }


def _tokens(obj):
    if isinstance(obj, Token):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _tokens(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _tokens(value)


_INDEX = st.integers(0, 7)
#: (kind, a, b, c, d): a picks an OSM, op or register; "load" reads b
#: and c as source and destination register indices and d as captured
#: producers; "hold", "doom" and "poke" read b and c as flags, "retag"
#: b (or a) as the OSM's new tag
ACTION = st.tuples(
    st.sampled_from(["step"] * 6 + ["load"] * 2
                    + ["cycle", "hold", "done", "doom", "poke", "retag"]),
    _INDEX,
    st.lists(_INDEX, max_size=2),
    st.lists(_INDEX, max_size=3),
    st.lists(_INDEX, max_size=2),
)


def test_every_registered_emitter_has_a_case():
    """A newly registered emitter must be added to CASES."""
    assert set(fuse._EMITTERS) == set(CASES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_case_spec_certifies(cls):
    world = World(CASES[cls], fused=True)
    assert certify_fused_states(world.spec) == []


#: settings of the two lockstep properties.  No shrink phase: shrinking a
#: failing 20-80-action list takes minutes, which makes a broken emitter
#: look like a hung run; without it the failure prints within seconds,
#: with the same examples generated and the same checks made.
LOCKSTEP = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow],
                    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
@LOCKSTEP
@given(actions=st.lists(ACTION, min_size=20, max_size=80))
def test_fused_emitter_matches_reference(cls, actions):
    """Lockstep with the reference.  Before each action every OSM but a
    stepping one (the director probes no sleeper) is put to sleep, so
    the snapshots also show that the generated commit code wakes the
    OSMs the manager methods wake."""
    fused, reference = World(CASES[cls], fused=True), World(CASES[cls], fused=False)
    assert fused.snapshot() == reference.snapshot()
    for action in actions:
        stepping = fused.osms[action[1] % N_OSMS] if action[0] == "step" else None
        for world in (fused, reference):
            for osm in world.osms:
                osm._asleep = osm.name != getattr(stepping, "name", None)
        outcome = fused.apply(action)
        assert outcome == reference.apply(action), action
        assert fused.snapshot(asleep=True) == reference.snapshot(asleep=True), action


# -- wake tests: one small spec per park-point kind -------------------------------
#
# State A parks on the case's kind behind keyed guards — some edges
# whose keys an operation matches, some it never does — after the reset
# inquiry, which is a park point of its own.  State B has no reset edge
# and keys every edge on the tag: an OSM whose tag matches none records
# the stepper's clear until a "retag" action frees it.

def _b_edges(slot):
    return [[Guard.equals(tag_of, 0), Release(slot)],
            [Guard.equals(tag_of, 1), Guard.equals(lane_of, 1), Release(slot)],
            [Guard.equals(tag_of, 1), Release(slot)]]


def _wake_slot(world):
    m, m2 = SlotManager("s"), SlotManager("t")
    return [m, m2], {
        ("I", "A"): [[Guard(has_op), Allocate(m, slot="s")]],
        ("A", "B"): [[Guard.equals(lane_of, 0), Release("s"), Allocate(m2, slot="t")],
                     [Guard.equals(lane_of, 1), Guard.equals(tag_of, 1), Release("s"),
                      Allocate(m2, slot="t")],
                     [Guard.equals(tag_of, 7), Release("s")]],
        ("B", "I"): _b_edges("t"),
    }


def _wake_pool(world):
    m = PoolManager("p", 2)
    return [m], {
        ("I", "A"): [[Guard(has_op), Allocate(m, slot="p")]],
        ("A", "B"): [[Guard.equals(tag_of, 2), Release("p"), Allocate(m, slot="q")],
                     [Guard.equals(lane_of, 0), Release("p"), Allocate(m, slot="q")],
                     [Guard.equals(lane_of, 1), Release("p")]],
        ("B", "I"): _b_edges("q") + [[Guard.equals(tag_of, 2), Release("q")]],
    }


def _wake_in_order_pool(world):
    m, m2 = InOrderPoolManager("o", 3, 1), InOrderPoolManager("c", 2, 1)
    return [m, m2], {
        ("I", "A"): [[Guard(has_op), Allocate(m, slot="o"), Allocate(m2, slot="c")]],
        ("A", "B"): [[Guard.equals(lane_of, 0), Release("o")],
                     [Guard.equals(lane_of, 1), Guard.equals(tag_of, 5), Release("o")],
                     [Guard.equals(lane_of, 1), Release("o")]],
        ("B", "I"): _b_edges("c"),
    }


def _wake_fetch_slot(world):
    unit = FetchUnit(lambda pc: None, 0)
    world.fetch = unit
    m, m2 = unit.manager, SlotManager("t")
    return [m, m2], {
        ("I", "A"): [[Guard(has_op), Allocate(m, slot="f")]],
        ("A", "B"): [[Guard.equals(lane_of, 1), Release("f"), Allocate(m2, slot="t")],
                     [Guard.equals(tag_of, 0), Release("f"), Allocate(m2, slot="t")]],
        ("B", "I"): _b_edges("t"),
    }


def _wake_reset(world):
    """The reset inquiry as the park point of keyed edges too: it shares
    one check with the reset edge, while the records differ by edge."""
    m = SlotManager("s")
    return [m], {
        ("I", "A"): [[Guard(has_op), Allocate(m, slot="s")]],
        ("A", "B"): [[Guard.equals(lane_of, 0), Release("s")],
                     [Guard.equals(tag_of, 1), Inquire(world.reset), Release("s")],
                     [Guard.equals(lane_of, 1), Guard.equals(tag_of, 2), Release("s")]],
        ("B", "I"): [[Guard.equals(tag_of, 0), Inquire(world.reset)],
                     [Guard.equals(tag_of, 1), Inquire(world.reset)],
                     [Guard.equals(tag_of, 2), Inquire(world.reset)]],
    }


for _build in (_wake_slot, _wake_pool, _wake_in_order_pool, _wake_fetch_slot,
               _wake_reset):
    _build.resets = "A"

#: park-point kind -> (spec builder, register identifiers)
WAKE_CASES = {
    ("Release", SlotManager): (_wake_slot, (0,)),
    ("Release", PoolManager): (_wake_pool, (0,)),
    ("Release", InOrderPoolManager): (_wake_in_order_pool, (0,)),
    ("Release", _FetchSlotManager): (_wake_fetch_slot, (0,)),
    ("Inquire", ResetManager): (_wake_reset, (0,)),
}


def test_every_park_point_kind_has_a_wake_case():
    """A park-point kind the generator accepts — a manager class whose
    emitter can express a release or inquiry refusal — must be added to
    WAKE_CASES."""
    kinds = set()
    for cls, emitter in fuse._EMITTERS.items():
        for primitive, method in (("Release", "release_refusal"),
                                  ("Inquire", "inquire_refusal")):
            if getattr(type(emitter), method) is not getattr(fuse.ManagerEmitter, method):
                kinds.add((primitive, cls))
    assert kinds == set(WAKE_CASES)


@pytest.mark.parametrize("kind", list(WAKE_CASES), ids=lambda k: f"{k[0]}-{k[1].__name__}")
def test_wake_case_parks_and_certifies(kind):
    world = World(WAKE_CASES[kind], fused=True)
    assert sorted(world.spec.compile_stats.parked_states) == ["A", "B"]
    assert certify_wake_tests(world.spec) == []


def test_a_release_that_never_refuses_is_no_park_point():
    """A register-file release always accepts, so a state parked on one
    would always wake: it gets no wake test."""
    def build(world):
        m = RegisterFileManager("r", 4, Backing(4))
        return [m], {
            ("I", "A"): [[Guard(has_op), Allocate(m, reg_of, slot="w")]],
            ("A", "B"): [[Guard.equals(tag_of, 0), Release("w")]],
            ("B", "I"): [[]],
        }

    world = World((build, (0, 1)), fused=True)
    assert world.spec.states["A"]._fused is not None
    assert world.spec.compile_stats.parked_states == []


@pytest.mark.parametrize("kind", list(WAKE_CASES), ids=lambda k: f"{k[0]}-{k[1].__name__}")
@LOCKSTEP
@given(actions=st.lists(ACTION, min_size=20, max_size=80))
def test_wake_false_means_the_probe_fails(kind, actions):
    """Lockstep with the reference: a step whose wake test returns False,
    or whose OSM is asleep in its state (the wake contract: only a
    manager's wake ends a sleep), is skipped, as the director skips it,
    and the reference probe of the same step must fail and leave both
    copies identical — the wake test wrote the same ``blocked_on`` and
    changed nothing else."""
    fused = World(WAKE_CASES[kind], fused=True)
    reference = World(WAKE_CASES[kind], fused=False)
    slept = {}  # OSM name -> the state it fell asleep in
    for action in actions:
        osm = fused.osms[action[1] % N_OSMS]
        wake = osm.current._wake
        if action[0] == "step" and wake is not None:
            before = fused.snapshot()
            if osm._asleep and slept.get(osm.name) is osm.current:
                skipped = True
            else:
                osm._asleep = False
                skipped = not wake(osm)
                if osm._asleep:
                    slept[osm.name] = osm.current
            if skipped:
                assert reference.apply(action) == ("edge", None), action
                after = fused.snapshot()
                assert {k: v for k, v in after.items() if k != "osms"} == \
                    {k: v for k, v in before.items() if k != "osms"}, action
                assert after == reference.snapshot(), action
                continue
        outcome = fused.apply(action)
        assert outcome == reference.apply(action), action
        assert fused.snapshot() == reference.snapshot(), action
