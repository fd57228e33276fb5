"""Regression tests for decode-cache block-reuse accounting.

``BaseInterpreter.fetch_decode`` used to probe the per-instruction layer
first and return before ever reaching :meth:`DecodeCache.fetch_block` —
the only place the ``block_hits`` counter lived — so the timing models
(which fetch exclusively through ``fetch_decode``) reported a 0.0 block
hit rate on every workload, loops included.  These tests pin the fixed
contract: re-fetching a block entry is a counted block hit, for the raw
interpreter and through a whole timing model.  ``run()`` dispatches a
block that branches back to its own entry once per entry, as it loops
in place.
"""

from repro.isa.arm import assemble
from repro.iss import ArmInterpreter
from repro.iss.decode_cache import DecodeCache
from repro.models.strongarm import StrongArmModel

#: a workload whose hot path is a loop: the block at ``loop`` is
#: re-entered ten times, so any correct block-reuse accounting must
#: report hits
LOOP_SOURCE = """
    .text
_start:
    mov r1, #10
loop:
    subs r1, r1, #1
    bne loop
    mov r0, #0
    swi #0
"""


#: the same loop with its body split over two blocks (``b next`` ends
#: the first), so ``run()`` re-enters both on every iteration
TWO_BLOCK_LOOP_SOURCE = """
    .text
_start:
    mov r1, #10
loop:
    subs r1, r1, #1
    b next
next:
    cmp r1, #0
    bne loop
    mov r0, #0
    swi #0
"""

#: a one-block inner loop entered three times by an outer loop
NESTED_LOOP_SOURCE = """
    .text
_start:
    mov r2, #3
outer:
    mov r1, #10
inner:
    subs r1, r1, #1
    bne inner
    subs r2, r2, #1
    bne outer
    mov r0, #0
    swi #0
"""


class TestFetchDecodeBlockAccounting:
    def test_reentry_counts_block_hit(self):
        interpreter = ArmInterpreter(assemble(LOOP_SOURCE))
        entry = interpreter.program.entry
        first = interpreter.fetch_decode(entry)
        assert interpreter.decode_cache.block_misses >= 1
        before = interpreter.decode_cache.block_hits
        second = interpreter.fetch_decode(entry)
        assert second is first
        assert interpreter.decode_cache.block_hits == before + 1

    def test_midblock_fetch_is_not_a_block_hit(self):
        interpreter = ArmInterpreter(assemble(LOOP_SOURCE))
        entry = interpreter.program.entry
        interpreter.fetch_decode(entry)
        hits = interpreter.decode_cache.block_hits
        # entry+4 starts the loop block; probe an address cached by the
        # *first* block's build but not itself rebuilt as a block entry
        interpreter.fetch_decode(entry)  # warm
        assert interpreter.decode_cache.block_hits > hits

    def test_unspecialized_interpreter_counts_nothing(self):
        interpreter = ArmInterpreter(assemble(LOOP_SOURCE), specialize=False)
        interpreter.run()
        assert interpreter.decode_cache.block_hits == 0
        assert interpreter.decode_cache.block_misses == 0

    def test_iss_loop_has_nonzero_hit_rate(self):
        interpreter = ArmInterpreter(assemble(TWO_BLOCK_LOOP_SOURCE))
        assert interpreter.run() == 0
        cache = interpreter.decode_cache
        assert cache.block_hits > 0
        probes = cache.block_hits + cache.block_misses
        assert cache.block_hits / probes > 0.5

    def test_one_block_loop_is_dispatched_once_per_entry(self, monkeypatch):
        # entry block, the inner loop, the outer tail and the outer
        # head, then the inner loop and the tail once per later outer
        # iteration, and the exit: 10 dispatches for 72 instructions
        program = assemble(NESTED_LOOP_SOURCE)
        interpreter = ArmInterpreter(program)
        entries = []
        fetch_block = DecodeCache.fetch_block
        monkeypatch.setattr(DecodeCache, "fetch_block", lambda cache, addr:
                            entries.append(addr) or fetch_block(cache, addr))
        assert interpreter.run() == 0
        assert entries.count(program.symbols["inner"]) == 3
        cache = interpreter.decode_cache
        assert (cache.block_misses, cache.block_hits) == (5, 5)
        reference = ArmInterpreter(program, specialize=False)
        reference.run()
        assert interpreter.state.instret == reference.state.instret == 72
        assert interpreter.state.regs.values == reference.state.regs.values


class TestTimingModelBlockAccounting:
    def test_strongarm_loop_has_nonzero_hit_rate(self):
        # the timing models fetch through BaseInterpreter.fetch_decode;
        # this is exactly the path whose re-entries were never counted
        model = StrongArmModel(assemble(LOOP_SOURCE), perfect_memory=True)
        model.run(100_000)
        assert model.exit_code == 0
        cache = model.iss.decode_cache
        assert cache.block_hits > 0, "looping workload must reuse blocks"
        probes = cache.block_hits + cache.block_misses
        assert cache.block_hits / probes > 0.5
