"""Sparse flat main memory.

Backing store for both the ISS architectural state and the hardware-layer
memory modules.  Pages are allocated lazily so programs can scatter text,
data and stack across a 32-bit space without cost.  All accesses are
little-endian.

Write hooks: consumers that cache derived views of memory (the decode
caches — see :mod:`repro.iss.decode_cache`) register a callback via
:meth:`MainMemory.add_write_hook` and are told the ``(address, length)``
span of every mutation, so self-modifying code invalidates exactly the
stale entries.  Each write operation notifies once for its whole span.

Read path: the page map (:attr:`MainMemory._pages`) may also be read
directly.  Generated ISS block functions read aligned words from it
inline, through :data:`unpack_word` with :data:`ZERO_PAGE` for an
unmapped page, instead of calling :meth:`MainMemory.read_word`.  Every
write still goes through the ``write_*`` methods, so the hooks see it.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1

#: ``unpack_word(page, offset)[0]`` is the little-endian word at
#: *offset* (a multiple of 4) of a page of the page map
unpack_word = struct.Struct("<I").unpack_from

#: what a page the page map does not hold reads as
ZERO_PAGE = bytes(PAGE_SIZE)


class MainMemory:
    """Lazily-paged 32-bit byte-addressable memory."""

    def __init__(self):
        #: page number -> its bytes.  A page is made on its first write
        #: and is never dropped or replaced, so a reference to this dict
        #: or to a page sees every later write: the read path above.
        self._pages: Dict[int, bytearray] = {}
        #: callbacks ``hook(address, length)`` fired after every write
        self._write_hooks: List[Callable[[int, int], None]] = []

    def add_write_hook(self, hook: Callable[[int, int], None]) -> None:
        """Register *hook(address, length)*, called after each write."""
        self._write_hooks.append(hook)

    def remove_write_hook(self, hook: Callable[[int, int], None]) -> None:
        self._write_hooks.remove(hook)

    def _page(self, address: int) -> bytearray:
        number = address >> PAGE_BITS
        page = self._pages.get(number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[number] = page
        return page

    # -- byte / word accessors ------------------------------------------------

    def read_byte(self, address: int) -> int:
        address &= 0xFFFFFFFF
        page = self._pages.get(address >> PAGE_BITS)
        if page is None:
            return 0
        return page[address & PAGE_MASK]

    def _write_byte_raw(self, address: int, value: int) -> None:
        self._page(address)[address & PAGE_MASK] = value & 0xFF

    def write_byte(self, address: int, value: int) -> None:
        address &= 0xFFFFFFFF
        self._page(address)[address & PAGE_MASK] = value & 0xFF
        hooks = self._write_hooks
        if hooks:
            for hook in hooks:
                hook(address, 1)

    def read_word(self, address: int) -> int:
        address &= 0xFFFFFFFF
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            page = self._pages.get(address >> PAGE_BITS)
            if page is None:
                return 0
            return struct.unpack_from("<I", page, offset)[0]
        return (
            self.read_byte(address)
            | (self.read_byte(address + 1) << 8)
            | (self.read_byte(address + 2) << 16)
            | (self.read_byte(address + 3) << 24)
        )

    def write_word(self, address: int, value: int) -> None:
        address &= 0xFFFFFFFF
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            struct.pack_into("<I", self._page(address), offset, value & 0xFFFFFFFF)
        else:
            for i in range(4):
                self._write_byte_raw((address + i) & 0xFFFFFFFF, (value >> (8 * i)) & 0xFF)
        hooks = self._write_hooks
        if hooks:
            for hook in hooks:
                hook(address, 4)

    def read_half(self, address: int) -> int:
        return self.read_byte(address) | (self.read_byte(address + 1) << 8)

    def write_half(self, address: int, value: int) -> None:
        address &= 0xFFFFFFFF
        self._write_byte_raw(address, value & 0xFF)
        self._write_byte_raw((address + 1) & 0xFFFFFFFF, (value >> 8) & 0xFF)
        hooks = self._write_hooks
        if hooks:
            for hook in hooks:
                hook(address, 2)

    # -- block accessors --------------------------------------------------------

    @staticmethod
    def _spans(address: int, length: int):
        """``(at, start, end)`` per page the *length* bytes at *address*
        touch: bytes ``[start, end)`` of the span begin at address *at*
        of that page.  Addresses wrap at 2**32."""
        done = 0
        while done < length:
            at = (address + done) & 0xFFFFFFFF
            end = min(length, done + PAGE_SIZE - (at & PAGE_MASK))
            yield at, done, end
            done = end

    def write_block(self, address: int, data: bytes) -> None:
        address &= 0xFFFFFFFF
        for at, start, end in self._spans(address, len(data)):
            offset = at & PAGE_MASK
            self._page(at)[offset:offset + end - start] = data[start:end]
        if data:
            hooks = self._write_hooks
            if hooks:
                for hook in hooks:
                    hook(address, len(data))

    def read_block(self, address: int, length: int) -> bytes:
        out = bytearray()
        for at, start, end in self._spans(address, length):
            page = self._pages.get(at >> PAGE_BITS)
            offset = at & PAGE_MASK
            out += bytes(end - start) if page is None else page[offset:offset + end - start]
        return bytes(out)

    @property
    def pages_allocated(self) -> int:
        return len(self._pages)
