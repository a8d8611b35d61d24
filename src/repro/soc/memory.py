"""Main-memory model of the SoC (Fig. 3).

A flat byte-addressable memory with a trivial bump allocator for the
regions the co-design flow needs (input image, result region), plus
access counters for bandwidth sanity checks.  All addresses are offsets
into one address space shared by the CPU (via AXI-Lite or the L2 path)
and the WFAsic DMA (via AXI-Full).

The bytes live in an anonymous ``mmap``: the OS hands out zero pages on
first touch, so a 64 MB SoC costs resident memory only for the regions a
batch actually writes or reads.  :meth:`MainMemory.read` copies a region
out; :meth:`MainMemory.view` lends it in place for the span of a
``with`` block, as the CPU reads a result region it owns.
"""

from __future__ import annotations

import mmap
from contextlib import contextmanager
from typing import Iterator

__all__ = ["MemoryError_", "MainMemory"]


class MemoryError_(RuntimeError):
    """Out-of-range access or allocation failure."""


class MainMemory:
    """Byte-addressable main memory with a bump allocator."""

    def __init__(self, size: int = 64 * 1024 * 1024) -> None:
        if size <= 0:
            raise ValueError("memory size must be > 0")
        self.size = size
        self._data = mmap.mmap(-1, size)
        self._next_free = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- allocation ------------------------------------------------------------

    def allocate(self, size: int, *, align: int = 16) -> int:
        """Reserve ``size`` bytes; returns the base address."""
        if size < 0:
            raise ValueError("allocation size must be >= 0")
        base = -(-self._next_free // align) * align
        if base + size > self.size:
            raise MemoryError_(
                f"out of memory: need {size} bytes at {base}, have {self.size}"
            )
        self._next_free = base + size
        return base

    def reset_allocator(self) -> None:
        """Free everything (batch-to-batch reuse)."""
        self._next_free = 0

    @property
    def remaining(self) -> int:
        """Bytes still available to :meth:`allocate`."""
        return self.size - self._next_free

    # -- access ------------------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """A copy of ``size`` bytes at ``addr`` (later writes leave it
        unchanged)."""
        self._check(addr, size)
        self.bytes_read += size
        return self._data[addr : addr + size]

    @contextmanager
    def view(self, addr: int, size: int) -> Iterator[memoryview]:
        """A read-only view of ``size`` bytes at ``addr``, valid inside the
        ``with`` block; counted in :attr:`bytes_read` like :meth:`read`.

        The view is released when the block ends.  Arrays made from it
        share its export of the memory, so none may outlive the block:
        the memory stays exported (and cannot close) until they are gone.
        """
        self._check(addr, size)
        self.bytes_read += size
        with memoryview(self._data) as whole:
            region = whole[addr : addr + size].toreadonly()
        with region:
            yield region

    def write(self, addr: int, data: bytes | bytearray) -> None:
        self._check(addr, len(data))
        self.bytes_written += len(data)
        self._data[addr : addr + len(data)] = data

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise MemoryError_(
                f"access [{addr}, {addr + size}) outside memory of {self.size} bytes"
            )
