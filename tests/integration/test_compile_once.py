"""Generated code is written and compiled once per process.

The ISS translation cache (:mod:`repro.iss.translations`) keys decoded
instructions, with their executors, and block functions on the code
bytes, and the fusion build plans (:mod:`repro.core.fuse`) keep each
spec structure's steppers and wake tests.  These tests pin what that
must and must not change: a second run of a program decodes, writes and
compiles nothing and produces the same complete result; no model,
block, memory, state or manager is kept alive by either cache, and a
block function holds no block; and each inline declaration the fuser
reads is parsed once.
"""

from __future__ import annotations

import ast
import builtins
import gc
import importlib
import sys
import weakref

import pytest

from repro.isa.arm import assemble as asm_arm
from repro.isa.arm import execgen as arm_execgen
from repro.isa.ppc import assemble as asm_ppc
from repro.isa.ppc import execgen as ppc_execgen
from repro.iss import ArmInterpreter, PpcInterpreter, translations
from repro.models.ppc750 import Ppc750Model
from repro.models.strongarm import StrongArmModel
from repro.workloads import mediabench

WORKLOAD = "gsm_dec"


def _arch(state, output) -> dict:
    return {
        "regs": list(state.regs.values),
        "pc": state.pc,
        "flags": (state.flag_n, state.flag_z, state.flag_c, state.flag_v),
        "lr_ctr": (state.lr, state.ctr),
        "instret": state.instret,
        "output": bytes(output),
    }


def _run_iss(iss_class, assemble, source):
    iss = iss_class(assemble(source))
    exit_code = iss.run()
    return {"exit_code": exit_code, **_arch(iss.state, iss.syscalls.output)}


def _run_model(model_class, assemble, source):
    model = model_class(assemble(source))
    stats = model.run()
    iss = getattr(model, "iss", None) or model.oracle.interpreter
    return {"cycles": stats.cycles, "instructions": stats.instructions,
            "transitions": stats.transitions, "exit_code": model.exit_code,
            **_arch(iss.state, iss.syscalls.output)}


RUNS = {
    "arm-iss": lambda: _run_iss(ArmInterpreter, asm_arm, mediabench.arm_source(WORKLOAD)),
    "ppc-iss": lambda: _run_iss(PpcInterpreter, asm_ppc, mediabench.ppc_source(WORKLOAD)),
    "strongarm": lambda: _run_model(StrongArmModel, asm_arm,
                                    mediabench.arm_source(WORKLOAD)),
    "ppc750": lambda: _run_model(Ppc750Model, asm_ppc, mediabench.ppc_source(WORKLOAD)),
}


#: every function that decodes an instruction or writes generated ISS
#: text
WRITERS = [(importlib.import_module("repro.isa.arm.decode"), "decode"),
           (importlib.import_module("repro.isa.ppc.decode"), "decode"),
           (arm_execgen, "_translate"), (arm_execgen, "block_source"),
           (ppc_execgen, "_translate"), (ppc_execgen, "block_source")]


class TestSecondRunCompilesNothing:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_second_run_is_all_hits_and_identical(self, name, monkeypatch,
                                                  fresh_translations):
        calls = []

        def counting(real, label):
            def counted(*args, **kwargs):
                calls.append(label)
                return real(*args, **kwargs)
            return counted

        for module, attr in WRITERS:
            monkeypatch.setattr(module, attr, counting(getattr(module, attr), attr))
        with fresh_translations():
            first = RUNS[name]()
            assert "decode" in calls  # the counters see the first run's work
            del calls[:]
            translated = translations.stats()
            with monkeypatch.context() as patch:
                patch.setattr(builtins, "compile", counting(builtins.compile, "compile"))
                second = RUNS[name]()
            after = translations.stats()
        # no decode, no executor or block text, no compile() at all
        assert calls == []
        assert after["misses"] == translated["misses"]
        assert after["hits"] > translated["hits"]  # the run's translations came from the cache
        assert second == first


class TestCachedCode:
    def test_each_run_gets_its_own_functions(self):
        # what a run gets of its own is its blocks: the block functions
        # they run, and the executors bound to their instructions, are
        # the process's, made once for every interpreter
        a, b = _compiled_iss(), _compiled_iss()
        entry = a.program.entry
        ba, bb = a.decode_cache.blocks[entry], b.decode_cache.blocks[entry]
        assert ba is not bb
        assert ba.compiled is bb.compiled and "_block" not in ba.compiled.__globals__
        # step()'s executors read nothing per build: each rides on the
        # process's instruction, bound once for every interpreter
        c = ArmInterpreter(asm_arm(mediabench.arm_source(WORKLOAD)))
        d = ArmInterpreter(asm_arm(mediabench.arm_source(WORKLOAD)))
        c.step()
        d.step()
        instr = c.decode_cache.entries[entry]
        assert d.decode_cache.entries[entry] is instr
        # its namespace: the execgen's globals and its unit's executors
        namespace = instr.exec_fn.__globals__
        assert {name for name in namespace if not name.startswith("_x")} == {
            *arm_execgen.GLOBALS, "__builtins__"}

    def test_translated_blocks_guard_their_own_block(self):
        # a block function's store guard reads ``_block.valid``, and
        # ``_block`` is the function's fourth argument, never a global:
        # one function shared by every run tests the block each run
        # hands it, not one an earlier run made the same text for
        for build in (_compiled_iss, _compiled_ppc_iss):
            runs = [build(), build()]
            guarded = 0
            for iss in runs:
                for block in iss.decode_cache.blocks.values():
                    fn = block.compiled
                    code = fn.__code__
                    assert code.co_varnames[:code.co_argcount] == (
                        "state", "syscalls", "limit", "_block")
                    assert "_block" not in fn.__globals__
                    guarded += "if not _block.valid:" in getattr(
                        fn, "__block_source__", "")
            assert guarded  # the workload stores inside translated blocks
            functions = [{entry: block.compiled
                          for entry, block in iss.decode_cache.blocks.items()}
                         for iss in runs]
            assert functions[0] and functions[0].keys() == functions[1].keys()
            assert all(functions[1][entry] is fn for entry, fn in functions[0].items()
                       if hasattr(fn, "__block_source__"))


def _compiled_iss():
    iss = ArmInterpreter(asm_arm(mediabench.arm_source(WORKLOAD)))
    iss.run()
    return iss


def _compiled_ppc_iss():
    iss = PpcInterpreter(asm_ppc(mediabench.ppc_source(WORKLOAD)))
    iss.run()
    return iss


def _model(model_class, assemble, source_of):
    def build():
        model = model_class(assemble(source_of(WORKLOAD)))
        model.run()
        return model
    return build


def _reused(model_class, assemble, source_of):
    """A build that installs its steppers from the plan a throwaway
    build of the same structure recorded (or reused)."""
    build = _model(model_class, assemble, source_of)

    def second():
        build()
        model = build()
        assert model.spec.fuse_certificate["plan"] == "reused"
        return model
    return second


def _iss_of(sim):
    if hasattr(sim, "oracle"):
        return sim.oracle.interpreter
    return getattr(sim, "iss", sim)


def _generated_functions(sim) -> list:
    """Every function made from generated code that *sim* holds alone:
    its steppers and wake tests."""
    spec = getattr(sim, "spec", None)
    if spec is None:
        return []
    found = []
    for state in spec.states.values():
        found += [state._fused, state._wake]
    return [fn for fn in found if callable(fn)]


def _run_objects(sim) -> list:
    """*sim*'s own run objects: its blocks, memory and state."""
    iss = _iss_of(sim)
    return [*iss.decode_cache.blocks.values(), iss.state.memory, iss.state]


def _translated(sim) -> list:
    """The process's functions *sim* ran: the executors bound to its
    decoded instructions and its blocks' block functions."""
    cache = _iss_of(sim).decode_cache
    found = [instr.exec_fn for instr in cache.entries.values()]
    found += [block.compiled for block in cache.blocks.values()]
    return [fn for fn in found if fn is not None]


BUILDS = {
    "compiled-arm-iss": _compiled_iss,
    "compiled-ppc-iss": _compiled_ppc_iss,
    "strongarm": _model(StrongArmModel, asm_arm, mediabench.arm_source),
    "ppc750": _model(Ppc750Model, asm_ppc, mediabench.ppc_source),
    "strongarm-plan-reused": _reused(StrongArmModel, asm_arm, mediabench.arm_source),
    "ppc750-plan-reused": _reused(Ppc750Model, asm_ppc, mediabench.ppc_source),
}


class TestNothingKeptAlive:
    """A build plan holds text, code and walk positions, and the
    translation cache instructions, their executors and block functions:
    a built and run simulator, its blocks, memory and state, and every
    stepper and wake test it made, die with the simulator's last
    reference, also when its build reused a plan and with the
    translation cache still holding the run's translations."""

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_collected_after_del(self, name):
        sim = BUILDS[name]()
        functions = _generated_functions(sim)
        assert functions or name.startswith("compiled-")
        refs = [weakref.ref(obj) for obj in [sim, *_run_objects(sim), *functions]]
        del sim, functions
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        assert translations.stats()["misses"] > 0

    @pytest.mark.parametrize("name", ["strongarm", "ppc750",
                                      "compiled-arm-iss", "compiled-ppc-iss"])
    def test_executors_live_as_long_as_their_translations(self, name,
                                                          fresh_translations):
        # an executor rides on the process's instruction and a block
        # function is the process's too; each reads nothing but its
        # arguments and the execgen's globals, so it holds no block,
        # outlives the simulator that made it, and only the cache keeps it
        with fresh_translations():
            sim = BUILDS[name]()
            globals_ = {*importlib.import_module(_iss_of(sim).execgen).GLOBALS,
                        "__builtins__"}
            functions = _translated(sim)
            assert functions
            assert all({key for key in fn.__globals__
                        if not key.startswith(("_x", "_block_"))} == globals_
                       and fn.__closure__ is None and fn.__defaults__ is None
                       for fn in functions)
            refs = [weakref.ref(fn) for fn in functions]
            blocks = [weakref.ref(block) for block in _iss_of(sim).decode_cache.blocks.values()]
            del sim, functions
            gc.collect()
            assert all(ref() is not None for ref in refs)
            assert [ref for ref in blocks if ref() is not None] == []
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []


class TestInlineDeclarationsParsedOnce:
    def test_second_ppc750_build_parses_no_inline_string(self, monkeypatch):
        program = asm_ppc(mediabench.ppc_source(WORKLOAD))
        Ppc750Model(program)
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "repro.core.fuse":
                parsed.append(source)
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        Ppc750Model(program)
        assert parsed == []

    def test_non_string_is_rejected_without_hashing(self):
        from repro.core.fuse import safe_inline_expr

        assert safe_inline_expr(["osm.tag"]) is False  # unhashable
        assert safe_inline_expr(None) is False
        assert safe_inline_expr("osm.operation.instr.unit") is True
        assert safe_inline_expr("f(osm)") is False
