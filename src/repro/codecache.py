"""One process-wide cache of compiled generated code.

The simulator generates Python source at run time in three places: the
ARM and PPC execgen bind a specialised executor to each instruction of
a newly discovered basic block, the ISS run loop compiles each basic
block it dispatches to one function, and the fusion generator writes
one stepper (and maybe one wake test) per OSM state.  All four call
sites compile through :func:`compile_cached`, so the ``compile()`` is
paid once per distinct text per process.

Two caches in front of this one keep a process from writing that text
again at all: the ISS translation cache (:mod:`repro.iss.translations`)
keeps decoded instructions, with the executors bound to them, and
block code, keyed on the code bytes, and the fusion build plans
(:mod:`repro.core.fuse`) keep each spec structure's steppers and wake
tests.  So a process that runs a program a second time (a fleet worker
under a sweep, ``repro bench``'s verify re-runs) calls
:func:`compile_cached` for no text of it.  A call here is for code the
process has not translated (a new program, a word a store rewrote, a
translation evicted at its bound), and it hits when the text itself is
not new, as after an eviction.

Sharing is exact.  A code object is immutable and a pure function of its
source, filename, mode and compiler flags: the key is the first two, the
mode is always ``"exec"``, and the flags are those of this module (the
``annotations`` future import, like every call site's module).  Each
call site still makes functions of its own from the shared code object
(with ``exec`` in a fresh namespace, or a stepper from its inner code
with its own parameter defaults), so per-build constants (the execgen
helpers, a block function's ``_block``, a stepper's defaults) stay per
build, nothing ties a cached code object to a block, model or manager,
and a store over translated code still drops its block, whose
re-translation compiles (or finds) the new text.
"""

from __future__ import annotations

import functools

#: code objects kept, least recently used evicted first.  An entry costs
#: about 14 KB with its source key (a block's code object about 10.6 KB,
#: its source 3.4 KB), and perfbench's three in-process workloads
#: together compile 90 distinct units, so 512 entries (about 7 MB) hold
#: all of them five times over.
MAX_ENTRIES = 512


@functools.lru_cache(maxsize=MAX_ENTRIES)
def compile_cached(source: str, filename: str):
    """``compile(source, filename, "exec")``, paid once per process for
    each distinct (*source*, *filename*) among the last
    :data:`MAX_ENTRIES`."""
    return compile(source, filename, "exec")


def stats() -> dict:
    """The process counters: ``{"hits": ..., "misses": ...}``."""
    info = compile_cached.cache_info()
    return {"hits": info.hits, "misses": info.misses}
