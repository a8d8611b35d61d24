"""Unit tests for the main-memory model."""

import pytest

from repro.soc import MainMemory, MemoryError_


class TestAccess:
    def test_write_read_roundtrip(self):
        mem = MainMemory(1024)
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_zero_initialised(self):
        mem = MainMemory(64)
        assert mem.read(0, 64) == b"\x00" * 64

    def test_out_of_range_read(self):
        mem = MainMemory(64)
        with pytest.raises(MemoryError_):
            mem.read(60, 8)
        with pytest.raises(MemoryError_):
            mem.read(-1, 4)

    def test_out_of_range_write(self):
        mem = MainMemory(64)
        with pytest.raises(MemoryError_):
            mem.write(62, b"abcd")

    def test_counters(self):
        mem = MainMemory(1024)
        mem.write(0, b"abc")
        mem.read(0, 2)
        assert mem.bytes_written == 3
        assert mem.bytes_read == 2

    def test_view_is_read_only_in_place_and_counted(self):
        mem = MainMemory(1024)
        mem.write(100, b"hello")
        with mem.view(101, 3) as view:
            assert view.readonly and view == b"ell"
            mem.write(101, b"ELL")
            assert view == b"ELL"  # in place, not a copy
            with pytest.raises(TypeError):
                view[0] = 0
        assert mem.bytes_read == 3
        with pytest.raises(ValueError):
            len(view)  # released with the block

    def test_out_of_range_view(self):
        mem = MainMemory(64)
        with pytest.raises(MemoryError_):
            with mem.view(60, 8):
                pass
        assert mem.bytes_read == 0


class TestAllocator:
    def test_alignment(self):
        mem = MainMemory(1024)
        a = mem.allocate(5)
        b = mem.allocate(5)
        assert a % 16 == 0 and b % 16 == 0
        assert b >= a + 5

    def test_remaining(self):
        mem = MainMemory(1024)
        mem.allocate(100)
        assert mem.remaining <= 1024 - 100

    def test_exhaustion(self):
        mem = MainMemory(64)
        with pytest.raises(MemoryError_):
            mem.allocate(100)

    def test_reset(self):
        mem = MainMemory(64)
        mem.allocate(48)
        mem.reset_allocator()
        assert mem.allocate(48) == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MainMemory(0)
        with pytest.raises(ValueError):
            MainMemory(64).allocate(-1)
