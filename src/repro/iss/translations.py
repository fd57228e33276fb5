"""One process-wide translation cache, keyed on code bytes: the one
place where code bytes become callables.

A specialised interpreter does three things to the code it meets: it
decodes each instruction, writes and binds an execgen executor to it
(``instr.exec_fn``, for :meth:`~repro.iss.interpreter.BaseInterpreter.
step` and the timing models; :func:`bind_block`), and writes and
compiles one function per basic block it runs
(:meth:`~repro.iss.interpreter.BaseInterpreter.run`;
:func:`block_function`).  Every interpreter has a decode cache of its
own, so without this module a process pays all three again for every
interpreter it builds.  This cache keys the steps on what they are a
function of:

* **Decoded instructions**, keyed by ``(decoder, address, word)``.  Each
  instruction is decoded once per process, and since its executor rides
  on it (``exec_fn``), each is written, compiled and bound once too.
* **Block functions**, keyed by the block's instructions:
  ``fn(state, syscalls, limit, _block) -> next_pc``, written, compiled
  and made once per process (its source on ``fn.__block_source__``).
  Every interpreter whose block holds those instructions runs that one
  function, passing its own block as ``_block``, which the function's
  store guards test (``if not _block.valid:``).

Sharing is exact.  A decoder is a pure function of the address and the
word, and an instruction's executor and a block's text are pure
functions of the instructions (the generators read nothing else).  A
generated function reads only its arguments and the execgen's
``GLOBALS``, which hold helpers and constants, so a shared function is
what a fresh generation would give and holds nothing of the interpreter
that made it.  The cache holds instructions, executors and block
functions only, never a :class:`~repro.iss.decode_cache.DecodedBlock`,
memory, state or model: each interpreter's decode cache still owns its
blocks and the write-invalidation contract, so a store over its text
drops its own blocks, and the re-fetch reads the new word, whose key is
new.  ``specialize=False`` (the reference) decodes fresh instructions
and shares nothing with this cache.
"""

from __future__ import annotations

import functools

#: instructions kept, least recently used evicted first.  An entry
#: costs about 0.7 KB (the instruction, with its register tuples and
#: text), 1.8 KB once an executor is bound to it (its function, its
#: share of the unit's namespace and code); perfbench's three
#: in-process workloads (iss, strongarm, ppc750) decode 698 distinct
#: instructions at seed 1, so 4,096 entries (at most about 7.5 MB) hold
#: them almost six times over.
MAX_INSTRUCTIONS = 4096

#: block functions kept, least recently used evicted first.  An entry
#: costs about 4.6 KB on average (its key, function, namespace, code
#: object and source; longer blocks cost more), measured with
#: ``tracemalloc`` over an iss round; those three workloads run 99
#: distinct blocks, so 512 entries (about 2.3 MB) hold them five times
#: over.
MAX_BLOCKS = 512


@functools.lru_cache(maxsize=MAX_INSTRUCTIONS)
def decoded(decode, addr: int, word: int):
    """``decode(addr, word)``, paid once per process for each distinct
    key among the last :data:`MAX_INSTRUCTIONS`."""
    return decode(addr, word)


def bind_block(execgen, instrs) -> None:
    """Attach an ``exec_fn`` executor to every instruction of a new
    block that has none and a translation, compiling the block's
    executors as one unit under an ``<execgen …>`` filename."""
    undefined = execgen.UNDEFINED_KIND
    sources = []
    bound = []
    for index, instr in enumerate(instrs):
        if instr.exec_fn is not None or instr.kind == undefined:
            # bound by an overlapping block built earlier, by this
            # interpreter or (the instruction being the process's) by
            # another; or one the reference executes
            continue
        name = f"_x{index}"
        source = execgen._translate(instr, name)
        if source is not None:
            sources.append(source)
            bound.append((instr, name))
    if not bound:
        return
    namespace = dict(execgen.GLOBALS)
    exec(compile("\n".join(sources),
                 f"<execgen {execgen.ISA} block {instrs[0].addr:#x}>", "exec"),
         namespace)
    for instr, name in bound:
        instr.exec_fn = namespace[name]


@functools.lru_cache(maxsize=MAX_BLOCKS)
def block_function(execgen, instrs: tuple):
    """The block function *execgen* writes for a block of *instrs*,
    ``fn(state, syscalls, limit, _block) -> next_pc``: it runs their
    leading instructions up to the first with no translation
    (``execgen.UNDEFINED_KIND``), compiled under a ``<block …>``
    filename; None when the first has none."""
    count = 0
    while count < len(instrs) and instrs[count].kind != execgen.UNDEFINED_KIND:
        count += 1
    if not count:
        return None
    entry = instrs[0].addr
    name = f"_block_{entry:x}"
    source = execgen.block_source(list(instrs[:count]), name)
    namespace = dict(execgen.GLOBALS)
    exec(compile(source, f"<block {entry:#x}>", "exec"), namespace)
    fn = namespace[name]
    fn.__block_source__ = source  # transcheck introspection (TRV005)
    return fn


def stats() -> dict:
    """The process counters over both caches: ``{"hits", "misses"}``."""
    infos = (decoded.cache_info(), block_function.cache_info())
    return {"hits": sum(info.hits for info in infos),
            "misses": sum(info.misses for info in infos)}


def clear() -> None:
    """Forget every translation (and zero the counters)."""
    decoded.cache_clear()
    block_function.cache_clear()
