"""One process-wide translation cache, keyed on code bytes.

A specialised interpreter does three things to the code it meets: it
decodes each instruction, writes and binds an execgen executor to it
(``instr.exec_fn``, for :meth:`~repro.iss.interpreter.BaseInterpreter.
step` and the timing models), and writes and compiles one function per
basic block it runs (:meth:`~repro.iss.interpreter.BaseInterpreter.
run`).  Every interpreter has a decode cache of its own, so without this
module a process pays all three again for every interpreter it builds,
and :mod:`repro.codecache` cannot help: its key is the text these steps
produce.  This cache keys the steps on what they are a function of:

* **Decoded instructions**, keyed by ``(decoder, address, word)``.  Each
  instruction is decoded once per process, and since its executor rides
  on it (``exec_fn``), each is written and bound once too.
* **Block code**, keyed by the block's instructions: the code object of
  its block function, its source and the function's name, written and
  compiled once per process.  Every interpreter still makes a function
  of its own from the code, whose ``_block`` (the block its store guards
  test) and ``__block_source__`` are its own.

Sharing is exact.  A decoder is a pure function of the address and the
word, and an instruction's executor and a block's text are pure
functions of the instructions (the generators read nothing else), so a
shared object is what a fresh decode or generation would give.  The
cache holds instructions, executors and code only, never a
:class:`~repro.iss.decode_cache.DecodedBlock`, memory, state or model:
each interpreter's decode cache still owns its blocks and the
write-invalidation contract, so a store over its text drops its own
blocks, and the re-fetch reads the new word, whose key is new.
``specialize=False`` (the reference) decodes fresh instructions and
shares nothing with this cache.
"""

from __future__ import annotations

import functools

from ..codecache import compile_cached

#: instructions kept, least recently used evicted first.  An entry
#: costs about 0.7 KB (the instruction, with its register tuples and
#: text), 1.8 KB once an executor is bound to it (its function, its
#: share of the unit's namespace and code); perfbench's three
#: in-process workloads (iss, strongarm, ppc750) decode 698 distinct
#: instructions at seed 1, so 4,096 entries (at most about 7.5 MB, what
#: :mod:`repro.codecache` holds at its bound) hold them almost six
#: times over.
MAX_INSTRUCTIONS = 4096

#: block code kept, least recently used evicted first.  An entry costs
#: about 4.5 KB on average (0.4 KB of key and entry, 4.1 KB of code
#: object and source, the objects :mod:`repro.codecache` holds while it
#: holds the text; longer blocks cost more), sizes measured with
#: ``tracemalloc`` over an iss round; those three workloads run 99
#: distinct blocks, so 512 entries (about 2.3 MB) hold them five times
#: over.
MAX_BLOCKS = 512


@functools.lru_cache(maxsize=MAX_INSTRUCTIONS)
def decoded(decode, addr: int, word: int):
    """``decode(addr, word)``, paid once per process for each distinct
    key among the last :data:`MAX_INSTRUCTIONS`."""
    return decode(addr, word)


@functools.lru_cache(maxsize=MAX_BLOCKS)
def block_code(execgen, instrs: tuple):
    """``(code, source, name)`` of the block function *execgen* writes
    for a block of *instrs*: its leading instructions up to the first
    with no translation (``execgen.UNDEFINED_KIND``), compiled under a
    ``<block …>`` filename (:func:`~repro.codecache.compile_cached`);
    None when the first has none."""
    count = 0
    while count < len(instrs) and instrs[count].kind != execgen.UNDEFINED_KIND:
        count += 1
    if not count:
        return None
    entry = instrs[0].addr
    name = f"_block_{entry:x}"
    source = execgen.block_source(list(instrs[:count]), name)
    return compile_cached(source, f"<block {entry:#x}>"), source, name


def stats() -> dict:
    """The process counters over both parts: ``{"hits", "misses"}``."""
    infos = (decoded.cache_info(), block_code.cache_info())
    return {"hits": sum(info.hits for info in infos),
            "misses": sum(info.misses for info in infos)}


def clear() -> None:
    """Forget every translation (and zero the counters)."""
    decoded.cache_clear()
    block_code.cache_clear()
