"""Generated code is written and compiled once per process.

Every execgen block binder, the ISS run loop's block functions and the
fusion generator compile through :func:`repro.codecache.compile_cached`, keyed on the
exact source text and filename, and the ISS translation cache
(:mod:`repro.iss.translations`) keys decoded instructions, with their
executors, and block code on the code bytes.  These tests pin what that
must and must not change: a second run of a program decodes, writes and
compiles nothing and produces the same complete result; a cached code
object equals a fresh compile; no model, block, memory, state or
manager is kept alive by either cache; and each inline declaration the
fuser reads is parsed once.
"""

from __future__ import annotations

import __future__
import ast
import gc
import importlib
import sys
import weakref

import pytest

from repro import codecache
from repro.codecache import compile_cached
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
        for module, attr in WRITERS:
            def counted(*args, real=getattr(module, attr), attr=attr):
                calls.append(attr)
                return real(*args)
            monkeypatch.setattr(module, attr, counted)
        with fresh_translations():
            first = RUNS[name]()
            assert "decode" in calls  # the counters see the first run's work
            del calls[:]
            translated, compiled = translations.stats(), codecache.stats()
            second = RUNS[name]()
            after = translations.stats()
        assert calls == []  # no decode, no executor text, no block text
        assert codecache.stats() == compiled  # no compile_cached call at all
        assert after["misses"] == translated["misses"]
        assert after["hits"] > translated["hits"]  # the run's translations came from the cache
        assert second == first


class TestCachedCode:
    SOURCE = "def _f(state):\n    return state + 1\n"

    def test_equals_a_fresh_compile_with_the_call_sites_flags(self):
        cached = compile_cached(self.SOURCE, "<test unit>")
        fresh = compile(self.SOURCE, "<test unit>", "exec",
                        __future__.annotations.compiler_flag, dont_inherit=True)
        assert cached == fresh
        assert cached.co_flags == fresh.co_flags
        assert compile_cached(self.SOURCE, "<test unit>") is cached

    def test_filename_is_part_of_the_key(self):
        one = compile_cached(self.SOURCE, "<test unit one>")
        two = compile_cached(self.SOURCE, "<test unit two>")
        assert one is not two
        assert two.co_filename == "<test unit two>"

    def test_bounded(self):
        assert compile_cached.cache_info().maxsize == codecache.MAX_ENTRIES

    def test_each_run_gets_its_own_functions(self):
        # the code object is shared; run()'s block functions, and the
        # namespaces holding their per-build ``_block``, are not
        a, b = _compiled_iss(), _compiled_iss()
        entry = a.program.entry
        fa = a.decode_cache.blocks[entry].compiled
        fb = b.decode_cache.blocks[entry].compiled
        assert fa is not fb and fa.__globals__ is not fb.__globals__
        assert fa.__code__ is fb.__code__
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
        # a block function's store guard reads ``_block.valid``: each
        # translation must test the block it was made for, not the one
        # an earlier ISS compiled the same text for
        for build in (_compiled_iss, _compiled_ppc_iss):
            runs = [build(), build()]
            for iss in runs:
                for block in iss.decode_cache.blocks.values():
                    assert block.compiled.__globals__["_block"] is block
            codes = [{entry: block.compiled.__code__
                      for entry, block in iss.decode_cache.blocks.items()}
                     for iss in runs]
            assert codes[0] == codes[1] and codes[0]
            assert all(codes[1][entry] is code for entry, code in codes[0].items())


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
    block translations, steppers and wake tests."""
    found = [block.compiled for block in _iss_of(sim).decode_cache.blocks.values()]
    spec = getattr(sim, "spec", None)
    if spec is not None:
        for state in spec.states.values():
            found += [state._fused, state._wake]
    return [fn for fn in found if callable(fn)]


def _run_objects(sim) -> list:
    """*sim*'s own run objects: its blocks, memory and state."""
    iss = _iss_of(sim)
    return [*iss.decode_cache.blocks.values(), iss.state.memory, iss.state]


def _executors(sim) -> list:
    """The execgen executors bound to *sim*'s decoded instructions."""
    return [instr.exec_fn for instr in _iss_of(sim).decode_cache.entries.values()
            if instr.exec_fn is not None]


BUILDS = {
    "compiled-arm-iss": _compiled_iss,
    "compiled-ppc-iss": _compiled_ppc_iss,
    "strongarm": _model(StrongArmModel, asm_arm, mediabench.arm_source),
    "ppc750": _model(Ppc750Model, asm_ppc, mediabench.ppc_source),
    "strongarm-plan-reused": _reused(StrongArmModel, asm_arm, mediabench.arm_source),
    "ppc750-plan-reused": _reused(Ppc750Model, asm_ppc, mediabench.ppc_source),
}


class TestNothingKeptAlive:
    """The code cache holds code objects and their source keys only, a
    build plan text, code and walk positions, and the translation cache
    instructions, their executors and block code: a built and run
    simulator, its blocks, memory and state, and every function it
    made from generated code, die with the simulator's last reference,
    also when its build reused a plan and with the translation cache
    still holding the run's translations."""

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_collected_after_del(self, name):
        sim = BUILDS[name]()
        functions = _generated_functions(sim)
        assert functions
        refs = [weakref.ref(obj) for obj in [sim, *_run_objects(sim), *functions]]
        del sim, functions
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        assert translations.stats()["misses"] > 0

    @pytest.mark.parametrize("name", ["strongarm", "ppc750"])
    def test_executors_live_as_long_as_their_translations(self, name,
                                                          fresh_translations):
        # an executor rides on the process's instruction, so it outlives
        # the simulator that bound it, and only the cache keeps it
        with fresh_translations():
            sim = BUILDS[name]()
            refs = [weakref.ref(fn) for fn in _executors(sim)]
            assert refs
            del sim
            gc.collect()
            assert all(ref() is not None for ref in refs)
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
