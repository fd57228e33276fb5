"""Self-modifying-code regression tests for the decode caches.

The seed implementation memoised decoded instructions by address and
never invalidated the cache, so a program that stored over its own text
kept executing the stale decode.  These tests pin the fixed contract: a
memory write overlapping a cached instruction's bytes drops the entry and
the next fetch re-decodes.

Every scenario that builds an ISS also runs with the process
translation cache (:mod:`repro.iss.translations`) already warm from the
same program: the ``*Warm`` classes at the end re-run the scenario
classes after throwaway ISSs have run the program to completion.  A
store over translated code must still drop it and re-translate, then
from the throwaway run's translations, with no ``compile()`` call.
"""

import builtins

import pytest

from repro.isa.arm import assemble as asm_arm
from repro.isa.ppc import assemble as asm_ppc
from repro.iss import ArmInterpreter, PpcInterpreter, translations
from repro.iss.decode_cache import PAGE_SHIFT, DecodeCache
from repro.memory.mainmem import MainMemory

from ..conftest import arm_program, ppc_program


def _arm_encoding(instruction: str) -> int:
    """The 32-bit encoding of a single ARM instruction."""
    program = asm_arm(arm_program(instruction))
    memory = MainMemory()
    program.load_into(memory)
    return memory.read_word(program.entry)


def _ppc_encoding(instruction: str) -> int:
    program = asm_ppc(ppc_program(instruction))
    memory = MainMemory()
    program.load_into(memory)
    return memory.read_word(program.entry)


class _Scenarios:
    #: run each program in throwaway ISSs before the scenario's own,
    #: through ``run()`` and through ``step()``, so every block function
    #: and executor it makes is in the translation cache
    warm = False

    def iss(self, iss_class, program):
        """The scenario's ISS of *iss_class* over *program*."""
        if self.warm:
            iss_class(program).run()
            stepped = iss_class(program)
            while not stepped.state.halted:
                stepped.step()
            self.misses_when_warm = translations.stats()["misses"]
            del self.compiles[:]
        return iss_class(program)


class TestArmSelfModify(_Scenarios):
    def test_store_over_executed_instruction_redecodes(self):
        # `target` executes once (priming the decode cache), is then
        # overwritten with `mov r0, #42`, and executes again.  With a
        # never-invalidated cache the second pass re-runs the stale
        # `mov r0, #1` and the program exits with 1 instead of 42.
        patch_word = _arm_encoding("    mov r0, #42")
        source = arm_program(f"""
    mov  r4, #0
    li   r1, target
    li   r2, patch
loop:
target:
    mov  r0, #1
    cmp  r4, #1
    beq  done
    mov  r4, #1
    ldr  r3, [r2]
    str  r3, [r1]
    b    loop
done:
""", data=f"patch: .word {patch_word:#010x}")
        interpreter = self.iss(ArmInterpreter, asm_arm(source))
        assert interpreter.run(10_000) == 42
        assert interpreter.decode_cache.invalidations >= 1

    def test_byte_store_invalidates_overlapping_instruction(self):
        # A one-byte store into the middle of a cached instruction must
        # also drop it: `mov r0, #1` has its immediate in the low byte,
        # so patching that byte to 7 changes the re-decoded result.
        source = arm_program("""
    mov  r4, #0
    li   r1, target
loop:
target:
    mov  r0, #1
    cmp  r4, #1
    beq  done
    mov  r4, #1
    mov  r3, #7
    strb r3, [r1]
    b    loop
done:
""")
        interpreter = self.iss(ArmInterpreter, asm_arm(source))
        assert interpreter.run(10_000) == 7

    def test_unmodified_code_still_cached(self):
        program = asm_arm(arm_program("    mov r0, #3"))
        interpreter = self.iss(ArmInterpreter, program)
        entry = interpreter.program.entry
        first = interpreter.fetch_decode(entry)
        assert interpreter.fetch_decode(entry) is first
        # a store elsewhere leaves the entry alone
        interpreter.state.memory.write_word(0x7000, 0xDEAD)
        assert interpreter.fetch_decode(entry) is first
        # a store over it drops the entry; the re-fetch reads identical
        # bytes, whose translation is the process's
        interpreter.state.memory.write_word(entry, first.word)
        assert entry not in interpreter.decode_cache.entries
        assert interpreter.decode_cache.invalidations == 1
        assert interpreter.fetch_decode(entry) is first
        # the reference shares no translation: it re-decodes them
        reference = ArmInterpreter(program, specialize=False)
        plain = reference.fetch_decode(entry)
        reference.state.memory.write_word(entry, plain.word)
        again = reference.fetch_decode(entry)
        assert again is not plain and again.text == plain.text == first.text


class TestPpcSelfModify(_Scenarios):
    def test_store_over_executed_instruction_redecodes(self):
        patch_word = _ppc_encoding("    li r3, 42")
        source = ppc_program(f"""
    li    r8, 0
    li32  r4, target
    li32  r5, patch
    lwz   r6, 0(r5)
loop:
target:
    li    r3, 1
    cmpwi r8, 1
    beq   done
    li    r8, 1
    stw   r6, 0(r4)
    b     loop
done:
""", data=f"patch: .word {patch_word:#010x}")
        interpreter = self.iss(PpcInterpreter, asm_ppc(source))
        assert interpreter.run(10_000) == 42
        assert interpreter.decode_cache.invalidations >= 1


def _arm_midblock_source() -> str:
    """A loop whose head block caches ``target`` as its *middle*
    instruction; the tail block then stores over it."""
    patch_word = _arm_encoding("    mov r0, #42")
    return arm_program(f"""
    mov  r4, #0
    li   r1, target
    li   r2, patch
loop:
    mov  r0, #1
target:
    mov  r0, #2
    cmp  r4, #1
    beq  done
    mov  r4, #1
    ldr  r3, [r2]
    str  r3, [r1]
    b    loop
done:
""", data=f"patch: .word {patch_word:#010x}")


def _arm_sameblock_source() -> str:
    """Straight-line code whose store patches the *next* instruction in
    the currently-executing block (the store-guard case)."""
    patch_word = _arm_encoding("    mov r0, #42")
    return arm_program(f"""
    li   r1, target
    li   r2, patch
    ldr  r3, [r2]
    str  r3, [r1]
target:
    mov  r0, #1
""", data=f"patch: .word {patch_word:#010x}")


def _ppc_midblock_source() -> str:
    patch_word = _ppc_encoding("    li r3, 42")
    return ppc_program(f"""
    li    r8, 0
    li32  r4, target
    li32  r5, patch
    lwz   r6, 0(r5)
loop:
    li    r3, 1
target:
    li    r3, 2
    cmpwi r8, 1
    beq   done
    li    r8, 1
    stw   r6, 0(r4)
    b     loop
done:
""", data=f"patch: .word {patch_word:#010x}")


def _ppc_sameblock_source() -> str:
    patch_word = _ppc_encoding("    li r3, 42")
    return ppc_program(f"""
    li32  r4, target
    li32  r5, patch
    lwz   r6, 0(r5)
    stw   r6, 0(r4)
target:
    li    r3, 1
""", data=f"patch: .word {patch_word:#010x}")


class TestBlockSelfModify(_Scenarios):
    """The basic-block layer: stores into cached blocks must drop them
    (and their bound executors) wherever in the block they land."""

    def test_arm_store_into_middle_of_cached_block(self):
        interpreter = self.iss(ArmInterpreter, asm_arm(_arm_midblock_source()))
        assert interpreter.run(10_000) == 42
        assert interpreter.decode_cache.block_invalidations >= 1

    def test_arm_store_guard_stops_current_block(self):
        # The store and its victim share a block: the run loop must stop
        # at the instruction boundary instead of finishing the stale tail.
        interpreter = self.iss(ArmInterpreter, asm_arm(_arm_sameblock_source()))
        assert interpreter.run(10_000) == 42

    def test_ppc_store_into_middle_of_cached_block(self):
        interpreter = self.iss(PpcInterpreter, asm_ppc(_ppc_midblock_source()))
        assert interpreter.run(10_000) == 42
        assert interpreter.decode_cache.block_invalidations >= 1

    def test_ppc_store_guard_stops_current_block(self):
        interpreter = self.iss(PpcInterpreter, asm_ppc(_ppc_sameblock_source()))
        assert interpreter.run(10_000) == 42

    def test_arm_write_straddling_two_blocks_drops_both(self):
        source = arm_program("""
    b    first
first:
    mov  r0, #1
    b    second
second:
    mov  r0, #2
    b    third
third:
    mov  r0, #3
""")
        interpreter = self.iss(ArmInterpreter, asm_arm(source))
        cache = interpreter.decode_cache
        entry = interpreter.program.entry
        block_a = cache.fetch_block(entry + 4)
        block_b = cache.fetch_block(block_a.end)
        assert block_a.valid and block_b.valid
        # 8 bytes spanning A's last word and B's first word: both die
        memory = interpreter.state.memory
        span = memory.read_block(block_a.end - 4, 8)
        memory.write_block(block_a.end - 4, span)
        assert not block_a.valid and not block_b.valid
        assert cache.blocks.get(block_a.entry) is None
        assert cache.blocks.get(block_b.entry) is None
        assert cache.block_invalidations >= 2

    def test_ppc_write_straddling_two_blocks_drops_both(self):
        source = ppc_program("""
    b    first
first:
    li   r3, 1
    b    second
second:
    li   r3, 2
    b    third
third:
    li   r3, 3
""")
        interpreter = self.iss(PpcInterpreter, asm_ppc(source))
        cache = interpreter.decode_cache
        entry = interpreter.program.entry
        block_a = cache.fetch_block(entry + 4)
        block_b = cache.fetch_block(block_a.end)
        memory = interpreter.state.memory
        span = memory.read_block(block_a.end - 4, 8)
        memory.write_block(block_a.end - 4, span)
        assert not block_a.valid and not block_b.valid
        assert cache.block_invalidations >= 2


class TestWideWriteInvalidation:
    """A single wide ``write_block`` must invalidate exactly the cached
    entries its byte span overlaps — across every page it touches — and
    leave neighbours on either side cached."""

    def test_wide_write_spans_pages(self):
        page = 1 << PAGE_SHIFT
        body = "\n".join("    mov  r0, #1" for _ in range(3 * page // 4 + 8))
        interpreter = ArmInterpreter(asm_arm(arm_program(body)))
        cache = interpreter.decode_cache
        entry = interpreter.program.entry
        kept_low = cache.fetch(entry)
        cache.fetch(entry + page)
        cache.fetch(entry + 2 * page)
        kept_high = cache.fetch(entry + 3 * page)
        # rewrite two whole pages with their own bytes: same text, but
        # the cached decodes in [entry+page, entry+3*page) must drop
        memory = interpreter.state.memory
        span = memory.read_block(entry + page, 2 * page)
        memory.write_block(entry + page, span)
        assert cache.invalidations == 2
        assert entry + page not in cache.entries
        assert entry + 2 * page not in cache.entries
        assert cache.fetch(entry) is kept_low
        assert cache.fetch(entry + 3 * page) is kept_high


class TestWrappingWrites:
    """A write that runs past 0xFFFFFFFF goes on at address 0, as
    :class:`MainMemory` writes it, so it must drop what it overlaps
    there too; and no block runs on from the last word to address 0."""

    @staticmethod
    def _cached_at_zero():
        from repro.isa.arm import decode

        memory = MainMemory()
        cache = DecodeCache(memory, decode)
        memory.write_word(0, _arm_encoding("mov r0, #1"))
        assert cache.fetch(0).text == "mov r0, #1"
        return memory, cache, decode, cache.fetch_block(0)

    @pytest.mark.parametrize("write,text", [
        (lambda memory: memory.write_word(0xFFFFFFFE, 0x0002E3A0), "mov r0, #2"),
        (lambda memory: memory.write_half(0xFFFFFFFF, 0x0200), "mov r0, #2"),
        (lambda memory: memory.write_block(0xFFFFFFFC, bytes(8)), None),
    ], ids=["word", "half", "block"])
    def test_wrapping_write_drops_the_instruction_at_zero(self, write, text):
        memory, cache, decode, block = self._cached_at_zero()
        write(memory)
        fresh = decode(0, memory.read_word(0))
        assert text is None or fresh.text == text
        assert not block.valid and 0 not in cache.blocks
        assert cache.fetch(0).text == fresh.text
        assert cache.fetch_block(0).instrs[0].text == fresh.text

    def test_block_ends_at_the_last_word(self):
        from repro.isa.arm import decode

        memory = MainMemory()
        cache = DecodeCache(memory, decode)
        for addr in (0xFFFFFFF8, 0xFFFFFFFC, 0):
            memory.write_word(addr, _arm_encoding("add r1, r1, #1"))
        block = cache.fetch_block(0xFFFFFFF8)
        assert (len(block), block.end) == (2, 1 << 32)
        assert len(cache.fetch_block(0xFFFFFFFC)) == 1


def _record_drops(monkeypatch) -> list:
    """The block function of every block a store drops, as it was before
    the drop (which must clear it)."""
    dropped = []
    drop = DecodeCache._drop_block

    def recording(cache, block):
        dropped.append(block.compiled)
        drop(cache, block)
        assert block.compiled is None

    monkeypatch.setattr(DecodeCache, "_drop_block", recording)
    return dropped


class TestCompiledSelfModify(_Scenarios):
    """``run()`` keeps each block's compiled function on the decode
    cache's block, so stores over translated code must drop the stale
    translation too — including a store whose victim is later in the
    currently-running block."""

    def _run(self, iss_class, program, monkeypatch):
        iss = self.iss(iss_class, program)
        dropped = _record_drops(monkeypatch)
        assert iss.run(10_000) == 42
        assert any(fn is not None for fn in dropped)

    def test_arm_compiled_store_over_cached_block(self, monkeypatch):
        self._run(ArmInterpreter, asm_arm(_arm_midblock_source()), monkeypatch)

    def test_arm_compiled_store_guard_same_block(self, monkeypatch):
        self._run(ArmInterpreter, asm_arm(_arm_sameblock_source()), monkeypatch)

    def test_ppc_compiled_store_over_cached_block(self, monkeypatch):
        self._run(PpcInterpreter, asm_ppc(_ppc_midblock_source()), monkeypatch)

    def test_ppc_compiled_store_guard_same_block(self, monkeypatch):
        self._run(PpcInterpreter, asm_ppc(_ppc_sameblock_source()), monkeypatch)


class TestWriteHookPlumbing:
    def test_hooks_fire_once_per_span(self):
        memory = MainMemory()
        spans = []
        memory.add_write_hook(lambda address, length: spans.append((address, length)))
        memory.write_byte(0x100, 0xAA)
        memory.write_half(0x200, 0xBBCC)
        memory.write_word(0x300, 0x11223344)
        memory.write_block(0x400, b"\x01\x02\x03\x04\x05")
        assert spans == [(0x100, 1), (0x200, 2), (0x300, 4), (0x400, 5)]

    def test_remove_write_hook(self):
        memory = MainMemory()
        spans = []

        def hook(address, length):
            spans.append((address, length))

        memory.add_write_hook(hook)
        memory.write_byte(0, 1)
        memory.remove_write_hook(hook)
        memory.write_byte(0, 2)
        assert spans == [(0, 1)]


class _WarmCache:
    """Runs a scenario class with the translation cache warm from the
    same program; the scenario itself must then translate and compile
    nothing."""

    warm = True

    @pytest.fixture(autouse=True)
    def _scenario_compiles_nothing(self, monkeypatch):
        self.compiles = []
        real = builtins.compile

        def counted(source, filename, *args, **kwargs):
            self.compiles.append(filename)
            return real(source, filename, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", counted)
        yield
        monkeypatch.undo()
        assert translations.stats()["misses"] == self.misses_when_warm
        assert self.compiles == []


class TestArmSelfModifyWarm(_WarmCache, TestArmSelfModify):
    pass


class TestPpcSelfModifyWarm(_WarmCache, TestPpcSelfModify):
    pass


class TestBlockSelfModifyWarm(_WarmCache, TestBlockSelfModify):
    pass


class TestCompiledSelfModifyWarm(_WarmCache, TestCompiledSelfModify):
    pass
