"""Generated code compiles once per process.

Every ISS block binder, the compiled ARM ISS and the fusion generator
compile through :func:`repro.codecache.compile_cached`, keyed on the
exact source text and filename.  These tests pin what that must and must
not change: a second run of a program compiles nothing and produces the
same complete result; a cached code object equals a fresh compile; no
model, block or manager is kept alive by the cache; and each inline
declaration the fuser reads is parsed once.
"""

from __future__ import annotations

import __future__
import ast
import gc
import sys
import weakref

import pytest

from repro import codecache
from repro.codecache import compile_cached
from repro.isa.arm import assemble as asm_arm
from repro.isa.ppc import assemble as asm_ppc
from repro.iss import ArmInterpreter, CompiledArmInterpreter, PpcInterpreter
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
    "compiled-arm-iss": lambda: _run_iss(CompiledArmInterpreter, asm_arm,
                                         mediabench.arm_source(WORKLOAD)),
    "strongarm": lambda: _run_model(StrongArmModel, asm_arm,
                                    mediabench.arm_source(WORKLOAD)),
    "ppc750": lambda: _run_model(Ppc750Model, asm_ppc, mediabench.ppc_source(WORKLOAD)),
}


class TestSecondRunCompilesNothing:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_second_run_is_all_hits_and_identical(self, name):
        first = RUNS[name]()
        before = codecache.stats()
        second = RUNS[name]()
        after = codecache.stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]  # the run's compiles went through the cache
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
        # the code object is shared; the functions, and the namespaces
        # holding per-build constants, are not
        a = ArmInterpreter(asm_arm(mediabench.arm_source(WORKLOAD)))
        b = ArmInterpreter(asm_arm(mediabench.arm_source(WORKLOAD)))
        a.run()
        b.run()
        entry = a.program.entry
        fa = a.decode_cache.entries[entry].exec_fn
        fb = b.decode_cache.entries[entry].exec_fn
        assert fa is not fb and fa.__globals__ is not fb.__globals__
        assert fa.__code__ is fb.__code__

    def test_translated_blocks_guard_their_own_block(self):
        # the compiled ISS's store guard reads ``_b.valid``: each
        # translation must test the block it was made for, not the one
        # an earlier ISS compiled the same text for
        runs = [_compiled_iss(), _compiled_iss()]
        for iss in runs:
            for block in iss.decode_cache.blocks.values():
                if block.compiled is not None:
                    assert block.compiled.__globals__["_b"] is block
        codes = [{entry: block.compiled.__code__
                  for entry, block in iss.decode_cache.blocks.items()
                  if block.compiled is not None} for iss in runs]
        assert codes[0] == codes[1] and codes[0]
        assert all(codes[1][entry] is code for entry, code in codes[0].items())


def _compiled_iss():
    iss = CompiledArmInterpreter(asm_arm(mediabench.arm_source(WORKLOAD)))
    iss.run()
    return iss


def _model(model_class, assemble, source_of):
    def build():
        model = model_class(assemble(source_of(WORKLOAD)))
        model.run()
        return model
    return build


def _generated_functions(sim) -> list:
    """Every function made from generated code that *sim* holds: block
    translations, execgen executors, steppers and wake tests."""
    if hasattr(sim, "oracle"):
        cache = sim.oracle.interpreter.decode_cache
    else:
        cache = getattr(sim, "iss", sim).decode_cache
    found = [block.compiled for block in cache.blocks.values()]
    found += [instr.exec_fn for instr in cache.entries.values()]
    spec = getattr(sim, "spec", None)
    if spec is not None:
        for state in spec.states.values():
            found += [state._fused, state._wake]
    return [fn for fn in found if callable(fn)]


class TestNothingKeptAlive:
    """The cache holds code objects and their source keys only: a built
    and run simulator, and every function it made from generated code,
    die with the simulator's last reference."""

    @pytest.mark.parametrize("build", [
        _compiled_iss,
        _model(StrongArmModel, asm_arm, mediabench.arm_source),
        _model(Ppc750Model, asm_ppc, mediabench.ppc_source),
    ], ids=["compiled-arm-iss", "strongarm", "ppc750"])
    def test_collected_after_del(self, build):
        sim = build()
        functions = _generated_functions(sim)
        assert functions
        refs = [weakref.ref(sim)] + [weakref.ref(fn) for fn in functions]
        del sim, functions
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
