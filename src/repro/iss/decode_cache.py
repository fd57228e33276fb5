"""Shared decoded-operation cache with write invalidation.

The ISS interpreters and the OSM-layer timing models both decode
instructions from main memory, and both memoise the result by address —
decoding is by far the most expensive part of a fetch.  The seed
implementation kept a bare per-interpreter dict that was *never
invalidated*: a program that stores over its own text kept executing the
stale decode.

:class:`DecodeCache` fixes that contract and extends it to *basic
blocks*.  The per-instruction layer is keyed by address and shared
between the functional interpreter and the fetch units of the timing
models (they all decode through :meth:`BaseInterpreter.fetch_decode`).
On top of it, :meth:`fetch_block` discovers basic-block boundaries at
fetch time: starting from an entry address it decodes forward until a
control transfer (``is_branch`` / ``writes_pc``) or a system instruction
ends the block, and memoises the resulting :class:`DecodedBlock`.  The
ISS run loop executes each block as one compiled function between cache
probes (cached on the block as ``compiled``), and the interpreter's
fetch path for ``step()`` and the timing models binds per-instruction
executor closures to a block's instructions when it builds the block.
A specialising interpreter hands this cache a decoder that goes
through the process's translation cache (:mod:`repro.iss.translations`),
so the instruction objects, with their executors, are shared by every
interpreter of the process; the address map, the blocks and the
invalidation below are this cache's own.

Both layers honor the write-invalidation contract.  A write hook on the
backing :class:`MainMemory` consults a 256-byte *page map* — page index
-> cached entry addresses / blocks spanning the page — so a store costs
O(pages touched) when nothing is cached nearby, instead of the previous
O(write length) per-byte scan; wide block writes (``write_block``) no
longer walk every byte of their span.  A store that overlaps a cached
instruction drops the entry *and* every block containing it; dropped
blocks are flagged ``valid = False`` and lose their block function, so
a block function that stores over its own block, looping in place or
not, returns right after the store and the run loop re-fetches.  A
write that runs past 0xFFFFFFFF goes on at address 0 (as
:class:`MainMemory` writes it) and is invalidated there too; a block
ends at the last word of the address space rather than run on to 0.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from ..memory.mainmem import MainMemory

#: instruction width in bytes (both targets are fixed-width 32-bit ISAs)
INSTR_BYTES = 4

#: page granularity of the invalidation index (2**8 = 256 bytes)
PAGE_SHIFT = 8

#: longest basic block discovered at fetch time (longer straight-line
#: runs chain blocks)
MAX_BLOCK_LEN = 64

#: the size of the address space; a write that runs past its end goes
#: on from address 0, and a block ends at its last word
ADDRESS_SPACE = 1 << 32


def _ends_block(instr) -> bool:
    """Block-ender predicate over the hazard metadata, for both targets.

    Control transfers end blocks (``is_branch`` covers branches,
    ``writes_pc`` covers ALU/load writes to the PC), and so do system
    instructions (ARM ``swi``/``udf`` are unit ``"system"``, PPC
    ``sc``/``mtspr``/``mfspr`` are unit ``"sru"``) — a syscall can halt
    the machine or rewrite memory under the block.
    """
    return instr.is_branch or instr.writes_pc or instr.unit in ("system", "sru")


class DecodedBlock:
    """A decoded basic block: ``instrs[i]`` is at ``entry + 4*i``.

    ``valid`` flips to False when a store overlaps ``[entry, end)``; a
    block function tests it after every store so self-modifying code
    re-fetches mid-block.  ``compiled`` caches the block function the ISS
    run loop executes, ``fn(state, syscalls, limit) -> next_pc`` (see
    :meth:`repro.iss.interpreter.BaseInterpreter.run`); a store over the
    block clears it, which is what ties block functions to the
    write-invalidation contract.
    """

    __slots__ = ("entry", "end", "instrs", "valid", "compiled", "__weakref__")

    def __init__(self, entry: int, instrs: List[Any]):
        self.entry = entry
        self.end = entry + INSTR_BYTES * len(instrs)
        self.instrs = instrs
        self.valid = True
        self.compiled: Optional[Callable] = None

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "valid" if self.valid else "invalidated"
        return f"DecodedBlock({self.entry:#x}..{self.end:#x}, {len(self.instrs)} instrs, {state})"


class DecodeCache:
    """Address-keyed decoded-instruction and basic-block cache.

    Parameters
    ----------
    memory:
        The backing main memory; a write hook is registered so stores
        that overlap a cached instruction invalidate it (and any block
        containing it).
    decode:
        ``decode(addr, word) -> instr`` — the ISA decoder.
    """

    __slots__ = ("entries", "blocks", "_decode", "_read_word",
                 "_pages", "_block_pages", "invalidations",
                 "block_hits", "block_misses", "block_invalidations")

    def __init__(self, memory: MainMemory, decode: Callable[[int, int], Any]):
        #: addr -> decoded instruction (exposed so the hot fetch path can
        #: do the dict probe without an extra call; see fetch_decode)
        self.entries: Dict[int, Any] = {}
        #: entry addr -> DecodedBlock
        self.blocks: Dict[int, DecodedBlock] = {}
        self._decode = decode
        self._read_word = memory.read_word
        #: page index -> addresses of cached entries on that page
        self._pages: Dict[int, Set[int]] = {}
        #: page index -> blocks overlapping that page
        self._block_pages: Dict[int, Set[DecodedBlock]] = {}
        #: number of cached entries dropped by overlapping writes
        self.invalidations = 0
        self.block_hits = 0
        self.block_misses = 0
        #: number of cached blocks dropped by overlapping writes
        self.block_invalidations = 0
        memory.add_write_hook(self._on_write)

    # -- per-instruction layer ----------------------------------------------

    def fetch(self, addr: int):
        """The decoded instruction at *addr* (decoding on first use)."""
        instr = self.entries.get(addr)
        if instr is None:
            instr = self._decode(addr, self._read_word(addr))
            self.entries[addr] = instr
            self._pages.setdefault(addr >> PAGE_SHIFT, set()).add(addr)
        return instr

    # -- basic-block layer ---------------------------------------------------

    def fetch_block(self, addr: int) -> DecodedBlock:
        """The basic block entered at *addr* (built on first use)."""
        block = self.blocks.get(addr)
        if block is not None:
            self.block_hits += 1
            return block
        self.block_misses += 1
        return self._build_block(addr)

    def _build_block(self, entry: int) -> DecodedBlock:
        instrs = [self.fetch(entry)]
        addr = entry
        while (not _ends_block(instrs[-1]) and len(instrs) < MAX_BLOCK_LEN
               and addr + 2 * INSTR_BYTES <= ADDRESS_SPACE):
            addr += INSTR_BYTES
            try:
                instrs.append(self.fetch(addr))
            except Exception:
                # decoding ran off mapped memory: the block ends here and
                # the (unreachable unless buggy) next fetch will fault in
                # the run loop instead, exactly as the per-instruction
                # interpreter would
                break
        block = DecodedBlock(entry, instrs)
        self.blocks[entry] = block
        for page in range(entry >> PAGE_SHIFT,
                          ((block.end - 1) >> PAGE_SHIFT) + 1):
            self._block_pages.setdefault(page, set()).add(block)
        return block

    # -- invalidation ---------------------------------------------------------

    def _on_write(self, address: int, length: int) -> None:
        """Drop every cached instruction and block the write overlaps.

        An instruction cached at address X covers ``[X, X+4)``; a write
        of *length* bytes at *address* overlaps X in
        ``[address-3, address+length-1]``.  Only the pages spanned by
        that interval are consulted, so a wide ``write_block`` costs one
        probe per 256-byte page rather than one per byte.  A write that
        runs past 2**32 goes on at address 0 (as :class:`MainMemory`
        writes it), so its tail is scanned from page 0.
        """
        lo = address - INSTR_BYTES + 1
        hi = address + length
        first_page = lo >> PAGE_SHIFT
        last_page = (hi - 1) >> PAGE_SHIFT
        pages = self._pages
        block_pages = self._block_pages
        if first_page == last_page:
            # fast path: data stores almost never share a page with code
            if first_page not in pages and first_page not in block_pages:
                return
        spans = [(address, hi)]
        if hi > ADDRESS_SPACE:
            spans = [(address, ADDRESS_SPACE), (0, hi - ADDRESS_SPACE)]
        entries = self.entries
        for start, stop in spans:
            lo = start - INSTR_BYTES + 1
            for page in range(lo >> PAGE_SHIFT, ((stop - 1) >> PAGE_SHIFT) + 1):
                addrs = pages.get(page)
                if addrs:
                    dead = [a for a in addrs if lo <= a < stop]
                    for a in dead:
                        addrs.discard(a)
                        del entries[a]
                    self.invalidations += len(dead)
                    if not addrs:
                        del pages[page]
                blocks_here = block_pages.get(page)
                if blocks_here:
                    dead_blocks = [b for b in blocks_here
                                   if start < b.end and stop > b.entry]
                    for block in dead_blocks:
                        self._drop_block(block)
                    self.block_invalidations += len(dead_blocks)

    def _drop_block(self, block: DecodedBlock) -> None:
        block.valid = False
        block.compiled = None
        if self.blocks.get(block.entry) is block:
            del self.blocks[block.entry]
        block_pages = self._block_pages
        for page in range(block.entry >> PAGE_SHIFT,
                          ((block.end - 1) >> PAGE_SHIFT) + 1):
            blocks_here = block_pages.get(page)
            if blocks_here is not None:
                blocks_here.discard(block)
                if not blocks_here:
                    del block_pages[page]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DecodeCache({len(self.entries)} entries, {len(self.blocks)} blocks, "
                f"{self.invalidations}+{self.block_invalidations} invalidated)")
