"""Tests for sparse main memory, including page-boundary behaviour."""

from hypothesis import given, strategies as st

from repro.memory import MainMemory
from repro.memory.mainmem import PAGE_SIZE

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
words = st.integers(min_value=0, max_value=0xFFFFFFFF)
#: addresses within a few bytes of a page boundary, the top of the
#: address space included
edge_addresses = st.builds(
    lambda page, delta: (page * PAGE_SIZE + delta) & 0xFFFFFFFF,
    st.integers(min_value=0, max_value=(1 << 32) // PAGE_SIZE),
    st.integers(min_value=-40, max_value=40))
#: block lengths up to a few pages
blobs = st.binary(max_size=2 * PAGE_SIZE + 64)


def _image(memory) -> dict:
    return {number: bytes(page) for number, page in memory._pages.items()}


class TestBasics:
    def test_uninitialised_reads_zero(self):
        memory = MainMemory()
        assert memory.read_word(0x1234) == 0
        assert memory.read_byte(0xFFFFFFFF) == 0
        assert memory.pages_allocated == 0

    def test_word_is_little_endian(self):
        memory = MainMemory()
        memory.write_word(0x100, 0xAABBCCDD)
        assert memory.read_byte(0x100) == 0xDD
        assert memory.read_byte(0x103) == 0xAA

    def test_half_access(self):
        memory = MainMemory()
        memory.write_half(0x10, 0xBEEF)
        assert memory.read_half(0x10) == 0xBEEF
        assert memory.read_byte(0x10) == 0xEF

    def test_block_roundtrip(self):
        memory = MainMemory()
        blob = bytes(range(64))
        memory.write_block(PAGE_SIZE - 32, blob)  # straddles a page boundary
        assert memory.read_block(PAGE_SIZE - 32, 64) == blob
        assert memory.pages_allocated == 2

    def test_block_wraps_at_the_top_of_the_address_space(self):
        memory = MainMemory()
        spans = []
        memory.add_write_hook(lambda address, length: spans.append((address, length)))
        memory.write_block(0xFFFFFFFC, bytes(range(1, 9)))
        assert spans == [(0xFFFFFFFC, 8)]  # one notification for the span
        assert memory.read_word(0xFFFFFFFC) == 0x04030201
        assert memory.read_word(0) == 0x08070605
        assert memory.read_block(0xFFFFFFFE, 4) == bytes([3, 4, 5, 6])

    def test_word_across_page_boundary(self):
        memory = MainMemory()
        memory.write_word(PAGE_SIZE - 2, 0x11223344)
        assert memory.read_word(PAGE_SIZE - 2) == 0x11223344


class TestProperties:
    @given(addresses, words)
    def test_word_roundtrip(self, address, value):
        memory = MainMemory()
        memory.write_word(address, value)
        assert memory.read_word(address) == value

    @given(addresses, st.integers(min_value=0, max_value=0xFF))
    def test_byte_roundtrip(self, address, value):
        memory = MainMemory()
        memory.write_byte(address, value)
        assert memory.read_byte(address) == value

    @given(addresses, words, words)
    def test_last_write_wins(self, address, first, second):
        memory = MainMemory()
        memory.write_word(address, first)
        memory.write_word(address, second)
        assert memory.read_word(address) == second

    @given(st.integers(min_value=0, max_value=0xFFFF), words)
    def test_disjoint_writes_do_not_interfere(self, address, value):
        memory = MainMemory()
        memory.write_word(address * 4, value)
        memory.write_word(address * 4 + 0x100000, ~value & 0xFFFFFFFF)
        assert memory.read_word(address * 4) == value

    @given(edge_addresses, blobs)
    def test_write_block_matches_bytewise_writes(self, address, data):
        memory, reference = MainMemory(), MainMemory()
        spans = []
        memory.add_write_hook(lambda at, length: spans.append((at, length)))
        memory.write_block(address, data)
        for i, byte in enumerate(data):
            reference.write_byte(address + i, byte)
        assert _image(memory) == _image(reference)
        assert spans == ([(address, len(data))] if data else [])

    @given(edge_addresses, blobs, st.integers(min_value=-64, max_value=64),
           st.integers(min_value=0, max_value=2 * PAGE_SIZE + 64))
    def test_read_block_matches_bytewise_reads(self, address, data, delta, length):
        memory = MainMemory()
        memory.write_block(address, data)
        pages = memory.pages_allocated
        start = address + delta  # read_block masks its address
        assert memory.read_block(start, length) == bytes(
            memory.read_byte(start + i) for i in range(length))
        assert memory.pages_allocated == pages  # reads allocate nothing
