"""The process-wide translation cache (:mod:`repro.iss.translations`).

Every specialised interpreter of a process takes its decoded
instructions, with their executors, and its block functions from one
cache keyed on code bytes.  These tests pin that the sharing is exact:
an interpreter that stores over its own text with the cache warm from
another interpreter's run still matches the reference, two interpreters
stepping the same self-modifying program side by side each see their
own text, two running it share one block function whose store guards
test each one's own block, the reference shares no instruction with the
cache, and runs whose translations are evicted at a small bound give
the same complete result.
"""

import importlib

import pytest

from repro.isa.arm import assemble as asm_arm
from repro.isa.ppc import assemble as asm_ppc
from repro.iss import ArmInterpreter, PpcInterpreter, translations
from repro.iss.decode_cache import DecodeCache
from repro.workloads import mediabench

from ..conftest import arm_program, ppc_program
from .test_block_functions import outcome
from .test_selfmodify import (_arm_encoding, _arm_midblock_source,
                              _arm_sameblock_source, _ppc_encoding,
                              _ppc_midblock_source, _ppc_sameblock_source)

#: programs that store over their own text
SELF_MODIFYING = {
    "arm-midblock": (ArmInterpreter, asm_arm, _arm_midblock_source),
    "arm-sameblock": (ArmInterpreter, asm_arm, _arm_sameblock_source),
    "ppc-midblock": (PpcInterpreter, asm_ppc, _ppc_midblock_source),
    "ppc-sameblock": (PpcInterpreter, asm_ppc, _ppc_sameblock_source),
}

KERNELS = {
    "arm": (ArmInterpreter, asm_arm, mediabench.arm_source),
    "ppc": (PpcInterpreter, asm_ppc, mediabench.ppc_source),
}


def _stepped(iss, max_steps=100_000) -> dict:
    """:func:`outcome` of a run through ``step()`` (the executors)."""
    def run(budget):
        while not iss.state.halted and iss.steps < budget:
            iss.step()
        return iss.state.exit_code
    iss.run = run
    return outcome(iss, max_steps)


class TestWarmSelfModify:
    @pytest.mark.parametrize("name", sorted(SELF_MODIFYING))
    def test_second_interpreter_stores_over_its_own_text(self, name):
        iss_class, assemble, source_of = SELF_MODIFYING[name]
        program = assemble(source_of())
        reference = outcome(iss_class(program, specialize=False), 10_000)
        assert reference["exit_code"] == 42
        # the first interpreters leave the original and the patched
        # words translated, with executors and block code
        outcome(iss_class(program), 10_000)
        _stepped(iss_class(program), 10_000)
        before = translations.stats()
        assert outcome(iss_class(program), 10_000) == reference
        assert _stepped(iss_class(program), 10_000) == reference
        after = translations.stats()
        assert after["misses"] == before["misses"] and after["hits"] > before["hits"]

    @pytest.mark.parametrize("name", sorted(SELF_MODIFYING))
    def test_interleaved_interpreters_each_see_their_own_text(self, name):
        # one interpreter patches its text while the other has yet to
        # reach the store: the shared translations must not carry the
        # patch across
        iss_class, assemble, source_of = SELF_MODIFYING[name]
        program = assemble(source_of())
        reference = outcome(iss_class(program, specialize=False), 10_000)
        ahead, behind = iss_class(program), iss_class(program)
        for _ in range(3):
            ahead.step()
        while not (ahead.state.halted and behind.state.halted):
            for iss in (ahead, behind):
                if not iss.state.halted:
                    iss.step()
        for iss in (ahead, behind):
            assert _stepped(iss, 10_000) == reference


def _arm_store_as_told() -> str:
    """Reads a byte *k*, then, in the block at ``body``, stores the
    patch word at ``target + k * (patch - target)``: over ``target``,
    that block's next instruction, for 0 (exit 42), over the patch word
    itself for 1 (exit 1)."""
    patch_word = _arm_encoding("    mov r0, #42")
    return arm_program(f"""
    swi  #3
body:
    li   r1, target
    li   r2, patch
    ldr  r3, [r2]
    sub  r4, r2, r1
    mul  r5, r0, r4
    add  r1, r1, r5
    str  r3, [r1]
target:
    mov  r0, #1
""", data=f"patch: .word {patch_word:#010x}")


def _ppc_store_as_told() -> str:
    patch_word = _ppc_encoding("    li r3, 42")
    return ppc_program(f"""
    li    r0, 3
    sc
body:
    li32  r4, target
    li32  r5, patch
    lwz   r6, 0(r5)
    subf  r7, r4, r5
    mullw r7, r3, r7
    add   r4, r4, r7
    stw   r6, 0(r4)
target:
    li    r3, 1
""", data=f"patch: .word {patch_word:#010x}")


class TestSharedBlockFunctions:
    def test_one_function_guards_each_block(self, monkeypatch):
        # two interpreters of one program run one block function; the
        # one whose store lands on its running block leaves at its own
        # guard and re-fetches, and the other's block stays valid
        dropped = []  # (decode cache, block, its function) per drop
        drop = DecodeCache._drop_block

        def recording(cache, block):
            dropped.append((cache, block, block.compiled))
            drop(cache, block)

        monkeypatch.setattr(DecodeCache, "_drop_block", recording)
        for iss_class, assemble, source in (
                (ArmInterpreter, asm_arm, _arm_store_as_told()),
                (PpcInterpreter, asm_ppc, _ppc_store_as_told())):
            program = assemble(source)
            body, target = program.symbols["body"], program.symbols["target"]
            reference = {stdin: outcome(iss_class(program, stdin=stdin,
                                                  specialize=False), 1_000)
                         for stdin in (b"\0", b"\1")}
            assert [reference[stdin]["exit_code"] for stdin in (b"\0", b"\1")] == [42, 1]
            other = iss_class(program, stdin=b"\1")
            assert outcome(other, 1_000) == reference[b"\1"]
            kept = other.decode_cache.blocks[body]
            shared = kept.compiled
            assert dropped == [] and hasattr(shared, "__block_source__")
            storing = iss_class(program, stdin=b"\0")
            assert outcome(storing, 1_000) == reference[b"\0"]
            [(cache, block, fn)] = dropped
            assert cache is storing.decode_cache and block is not kept
            assert fn is shared
            assert target in storing.decode_cache.blocks  # the re-fetch
            assert kept.valid and other.decode_cache.blocks[body] is kept
            assert kept.compiled is shared
            del dropped[:]


class TestReferenceSharesNothing:
    @pytest.mark.parametrize("isa", sorted(KERNELS))
    def test_plain_interpreter_decodes_fresh_instructions(self, isa):
        iss_class, assemble, source_of = KERNELS[isa]
        program = assemble(source_of("gsm_dec"))
        fast = iss_class(program)
        _stepped(fast)
        before = translations.stats()
        plain = iss_class(program, specialize=False)
        assert _stepped(plain) == _stepped(iss_class(program))
        assert plain.decode_cache.entries
        shared = {id(instr) for instr in fast.decode_cache.entries.values()}
        assert not any(id(instr) in shared
                       for instr in plain.decode_cache.entries.values())
        assert all(instr.exec_fn is None
                   for instr in plain.decode_cache.entries.values())
        after = translations.stats()
        assert after["misses"] == before["misses"]


class TestKeys:
    def test_decoder_address_and_word_make_the_key(self):
        arm = importlib.import_module("repro.isa.arm.decode").decode
        ppc = importlib.import_module("repro.isa.ppc.decode").decode
        word = 0xE3A00003  # mov r0, #3
        one = translations.decoded(arm, 0x8000, word)
        assert translations.decoded(arm, 0x8000, word) is one
        moved = translations.decoded(arm, 0x8004, word)
        assert moved is not one and moved.addr == 0x8004
        assert translations.decoded(arm, 0x8000, word + 1) is not one
        other = translations.decoded(ppc, 0x8000, word)
        assert other is not one and type(other) is not type(one)


class TestEviction:
    @pytest.mark.parametrize("isa", sorted(KERNELS))
    def test_results_exact_at_a_small_bound(self, isa, fresh_translations):
        iss_class, assemble, source_of = KERNELS[isa]
        program = assemble(source_of("gsm_dec"))
        reference = outcome(iss_class(program, specialize=False))
        with fresh_translations(max_instructions=16, max_blocks=2):
            runs = [outcome(iss_class(program)) for _ in range(2)]
            steps = [_stepped(iss_class(program)) for _ in range(2)]
            instrs = translations.decoded.cache_info()
            blocks = translations.block_function.cache_info()
        assert runs == [reference] * 2
        assert steps == [reference] * 2
        assert instrs.currsize == 16 and instrs.misses > 16
        assert blocks.currsize == 2 and blocks.misses > 2
