"""AXI bus models (Fig. 3).

Two buses connect the blocks of the SoC:

* **AXI-Lite** — the CPU's path to the accelerator's register file
  (single 32-bit accesses) and to main memory for uncached accesses.
* **AXI-Full** — the 16-byte-wide data path used by the WFAsic DMA and
  by the CPU's L2 cache refills.

These are functional routers with transfer counters; the *timing* of
AXI-Full bursts lives in ``repro.wfasic.dma`` (where Table 1 calibrates
it) and the CPU-side access costs live in ``repro.soc.cpu``.
"""

from __future__ import annotations

from ..wfasic.config import AXI_DATA_BYTES
from .memory import MainMemory
from .mmio import RegisterFile

__all__ = ["AxiLite", "AxiFull"]


class AxiLite:
    """CPU <-> register-file/memory single-word transactions."""

    #: Register space occupies the top of the address map.
    MMIO_BASE = 0xFFFF_0000

    def __init__(self, memory: MainMemory, registers: RegisterFile) -> None:
        self.memory = memory
        self.registers = registers
        self.reads = 0
        self.writes = 0

    def read32(self, addr: int) -> int:
        self.reads += 1
        if addr >= self.MMIO_BASE:
            return self.registers.read(addr - self.MMIO_BASE)
        return int.from_bytes(self.memory.read(addr, 4), "little")

    def write32(self, addr: int, value: int) -> None:
        self.writes += 1
        if addr >= self.MMIO_BASE:
            self.registers.write(addr - self.MMIO_BASE, value)
            return
        self.memory.write(addr, int(value).to_bytes(4, "little"))


class AxiFull:
    """16-byte-wide burst data path to main memory."""

    def __init__(self, memory: MainMemory) -> None:
        self.memory = memory
        self.beats_read = 0
        self.beats_written = 0

    def read_stream(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes as whole beats (size padded up)."""
        padded = -(-size // AXI_DATA_BYTES) * AXI_DATA_BYTES
        self.beats_read += padded // AXI_DATA_BYTES
        return self.memory.read(addr, size)

    def write_stream(self, addr: int, data: bytes | bytearray) -> None:
        self.beats_written += -(-len(data) // AXI_DATA_BYTES)
        self.memory.write(addr, data)
