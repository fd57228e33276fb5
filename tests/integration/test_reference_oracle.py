"""The reference path is an independent oracle: built with
``fused=False`` and run under the director's reference loop, a model
executes no generated OSM code, so a bug in the code generator cannot
hide by also running in the oracle.  (The ISS's execgen closures are
out of scope: the ISS has its own oracle, ``specialize=False``.)
The models without a ``fused=`` switch fuse at build and are checked
against the same model defused under the reference loop.
"""

import sys

import pytest

from repro.core import OperationStateMachine
from repro.workloads import mediabench

#: ``co_filename`` prefixes of generated OSM code
GENERATED_OSM = ("<fused:", "<edge-condition")


def _build(model_name: str, fused: bool, kernel: str = "gsm_dec"):
    if model_name == "strongarm":
        from repro.isa.arm import assemble
        from repro.models.strongarm import StrongArmModel

        return StrongArmModel(assemble(mediabench.arm_source(kernel)),
                              fused=fused)
    from repro.isa.ppc import assemble
    from repro.models.ppc750 import Ppc750Model

    return Ppc750Model(assemble(mediabench.ppc_source(kernel)), fused=fused)


def _executed_files(model):
    """``co_filename`` of every Python function *model* runs on its way
    through the whole kernel."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        model.run(10_000_000)
    finally:
        sys.setprofile(None)
    assert model.exit_code == 130  # gsm_dec ran to completion
    return seen


@pytest.mark.parametrize("model_name", ["strongarm", "ppc750"])
def test_reference_run_executes_no_generated_osm_code(model_name):
    # positive control: the profiler does see the fused steppers run,
    # and on ppc750 (the generic scan) the wake tests too
    fused = _executed_files(_build(model_name, fused=True))
    assert any(f.startswith("<fused:") for f in fused)
    if model_name == "ppc750":
        assert {f for f in fused if f.endswith(".wake>")} == {
            f"<fused:ppc750.{name}.wake>" for name in "QWX"}

    model = _build(model_name, fused=False)
    model.director.reference = True
    generated = sorted(
        f for f in _executed_files(model) if f.startswith(GENERATED_OSM))
    assert generated == []


def test_unfused_build_parks_nothing():
    """Without steppers there are no wake tests: the fast-path scan of a
    ``fused=False`` build probes every blocked operation, as before."""
    model = _build("ppc750", fused=False)
    assert all(state._wake is None for state in model.spec.states.values())
    assert model.spec.compile_stats.parked_states == []
    stats = model.run(10_000_000)
    assert model.exit_code == 130
    assert stats.parked_skips == 0
    assert all(osm._parked is None for osm in model.osms)


@pytest.mark.parametrize("change", ["defuse", "add-edge"])
def test_parked_operations_of_a_state_that_lost_its_wake_test_are_probed(change):
    """A spec defused, or given a new edge, mid-run loses its wake
    tests while operations are parked, some asleep, in their states:
    the scan probes them as unparked, and the run ends as it would
    have."""
    from repro.core import Condition, Guard, defuse_spec

    model = _build("ppc750", fused=True)
    for _ in range(200):
        model.kernel.step()
    parked = [osm for osm in model.osms if osm._parked is osm.current]
    assert {osm.current.name for osm in parked if osm._asleep} & {"Q", "W"}
    if change == "defuse":
        defuse_spec(model.spec)
    else:
        model.spec.edge("Q", "I", Condition([Guard(lambda osm: False, "never")]),
                        priority=-1, label="never")
        assert model.spec.states["Q"]._wake is None
    stats = model.run(10_000_000)
    assert (stats.cycles, stats.instructions, model.exit_code) == \
        _pinned("ppc750", "gsm_dec")


#: the member descriptor of the OSM's ``_asleep`` slot
_ASLEEP = OperationStateMachine.__dict__["_asleep"]


class _CheckedOsm(OperationStateMachine):
    """An OSM whose asleep skips are checked as they happen: the
    director reads ``_asleep`` of a parked OSM only to skip it, so each
    True read runs the real stepper, which must fail and leave the
    refusal record the OSM fell asleep with."""

    director = None
    skips = None

    @property
    def _asleep(self):
        asleep = _ASLEEP.__get__(self)
        if asleep:
            record = self.blocked_on
            assert self.current._fused(self, self.director.clock) is None, \
                ("asleep", self.current.name, self)
            assert self.blocked_on == record, (self.current.name, self.blocked_on, record)
            self.skips["asleep"] += 1
        return asleep

    @_asleep.setter
    def _asleep(self, value):
        _ASLEEP.__set__(self, value)


#: ppc750 configurations: the default one on every kernel (with pinned
#: results), and the fleet-bench single-dispatch one (checked against the
#: reference loop)
SKIP_CASES = [(kernel, {}) for kernel in mediabench.MEDIABENCH_NAMES] + [
    ("gsm_dec", {"perfect_memory": True, "dispatch_width": 1, "retire_width": 1}),
]


@pytest.mark.parametrize("kernel,config", SKIP_CASES,
                         ids=[k + ("-single-dispatch" if c else "") for k, c in SKIP_CASES])
def test_every_parked_skip_is_a_failing_probe(kernel, config, monkeypatch):
    """Each time a wake test returns False, and each time the OSM is
    asleep, the director skips the probe; here the real stepper runs
    right there, and must fail and leave the refusal record the wake
    test wrote.  The checked skips are all the parked skips."""
    from repro.isa.ppc import assemble
    from repro.models.ppc750 import Ppc750Model, model as ppc750_model

    monkeypatch.setattr(ppc750_model, "OperationStateMachine", _CheckedOsm)
    program = assemble(mediabench.ppc_source(kernel))
    model = Ppc750Model(program, **config)
    skips = {"wake": 0, "asleep": 0}
    monkeypatch.setattr(_CheckedOsm, "director", model.director)
    monkeypatch.setattr(_CheckedOsm, "skips", skips)

    def checked(state, wake, stepper):
        def wrapper(osm):
            if wake(osm):
                return True
            record = osm.blocked_on
            assert stepper(osm, model.director.clock) is None, (state.name, osm)
            assert osm.blocked_on == record, (state.name, osm.blocked_on, record)
            skips["wake"] += 1
            return False
        return wrapper

    for state in model.spec.states.values():
        if state._wake is not None:
            state._wake = checked(state, state._wake, state._fused)
    stats = model.run(10_000_000)
    got = (stats.cycles, stats.instructions, model.exit_code)
    if config:
        reference = Ppc750Model(program, fused=False, **config)
        reference.director.reference = True
        ref = reference.run(10_000_000)
        assert got == (ref.cycles, ref.instructions, reference.exit_code)
    else:
        assert got == _pinned("ppc750", kernel)
    assert skips["wake"] + skips["asleep"] == stats.parked_skips
    assert skips["wake"] > 0 and skips["asleep"] > 0
    assert stats.wake_calls >= skips["wake"]


def _pinned(model_name, kernel):
    from .test_case_study_results import EXPECTED

    return EXPECTED[model_name][kernel]


def _calls_by_code(model, codes):
    """``code object -> number of calls`` *model* makes into each of
    *codes* on its way through gsm_dec."""
    counts = dict.fromkeys(codes, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        model.run(10_000_000)
    finally:
        sys.setprofile(None)
    assert model.exit_code == 130
    return counts


def _routing_code(model):
    """Code objects of the guard predicates and keys on ppc750's
    dispatch (Q) and issue (R) edges."""
    from repro.core import Guard

    codes = set()
    for name in ("Q", "R"):
        for edge in model.spec.states[name].out_edges:
            for primitive in edge.condition.primitives:
                if isinstance(primitive, Guard):
                    codes.add(primitive.predicate.__code__)
                    if getattr(primitive, "key", None) is not None:
                        codes.add(primitive.key.__code__)
    return codes


def test_fused_ppc750_tests_routing_keys_inline():
    """Keyed guards: the fused Q and R steppers compare the unit class
    and the reservation station inline, so a whole kernel calls no
    route or station predicate and no key function."""
    model = _build("ppc750", fused=True)
    calls = _calls_by_code(model, _routing_code(model))
    assert sum(calls.values()) == 0, calls

    # positive control: the reference probes every guard through
    # Guard.probe, which calls its predicate and the predicate its key
    reference = _build("ppc750", fused=False)
    reference.director.reference = True
    calls = _calls_by_code(reference, _routing_code(reference))
    assert all(calls.values()), calls


def _probe_code():
    """Code objects of every TMI probe method (``allocate``, ``inquire``,
    ``release``) of every token-manager class, and of every function of
    the transaction module."""
    from repro.core import TokenManager, transaction

    classes, stack = [], [TokenManager]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    codes = {cls.__dict__[name].__code__ for cls in classes
             for name in ("allocate", "inquire", "release") if name in cls.__dict__}
    for obj in vars(transaction.Transaction).values():
        if hasattr(obj, "__code__"):
            codes.add(obj.__code__)
    return codes


def test_fused_ppc750_makes_no_transaction_or_tmi_probe_calls():
    """Every ppc750 manager has a native emitter: a fused gsm_dec run
    never touches a transaction and never probes a manager through its
    TMI methods."""
    model = _build("ppc750", fused=True)
    calls = _calls_by_code(model, _probe_code())
    assert {code.co_name: n for code, n in calls.items() if n} == {}

    # positive control: the reference probes through the TMI
    reference = _build("ppc750", fused=False)
    reference.director.reference = True
    calls = _calls_by_code(reference, _probe_code())
    assert sum(calls.values()) > 0


def _build_unswitched(model_name: str):
    from repro.isa.arm import assemble

    def program(kernel):
        return assemble(mediabench.arm_source(kernel))

    if model_name == "vliw":
        from repro.models.vliw import VliwModel

        return VliwModel(program("gsm_dec"))
    if model_name == "multithread":
        from repro.models.multithread import MultithreadModel

        return MultithreadModel([program("gsm_dec"), program("g721_dec")])
    from repro.adl.synth import PIPELINE5_ADL, STRONGARM_ADL, synthesize

    description = {"adl-pipeline5": PIPELINE5_ADL,
                   "adl-strongarm": STRONGARM_ADL}[model_name]
    return synthesize(description, program("gsm_dec"))


def _results(model):
    stats = model.run(10_000_000)
    codes = (model.exit_codes() if hasattr(model, "exit_codes")
             else model.exit_code)
    return stats.cycles, stats.instructions, stats.transitions, codes


@pytest.mark.parametrize(
    "model_name", ["adl-pipeline5", "adl-strongarm", "multithread", "vliw"])
def test_unswitched_model_fuses_and_matches_its_oracle(model_name):
    from repro.core import defuse_spec

    fast = _build_unswitched(model_name)
    assert fast.spec.fuse_certificate["fused_states"] == sorted(fast.spec.states)
    oracle = _build_unswitched(model_name)
    defuse_spec(oracle.spec)
    oracle.director.reference = True
    assert _results(fast) == _results(oracle)
