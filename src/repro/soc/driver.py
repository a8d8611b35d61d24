"""Linux-driver-style API over the memory-mapped interface (§3 / Fig. 4).

The co-design flow: the CPU parses the input and stages it in main
memory, programs the accelerator's registers over AXI-Lite (backtrace
enable, MAX_READ_LEN, DMA source/destination), writes Start, and waits —
polling Idle or taking the completion interrupt.  The accelerator
streams the image in over AXI-Full, aligns, and streams results out;
the CPU then reads the result region where it lies.

:class:`WfasicDevice` is the "hardware" side binding a
:class:`~repro.wfasic.WfasicAccelerator` to the register file, bus and
interrupt line; :class:`WfasicDriver` is the "software" side the
examples and benches program against.
"""

from __future__ import annotations

from contextlib import AbstractContextManager

from ..wfasic.accelerator import BatchResult, WfasicAccelerator
from ..wfasic.config import WfasicConfig
from .axi import AxiFull, AxiLite
from .interrupt import InterruptLine
from .memory import MainMemory
from .mmio import Reg, RegisterFile

__all__ = ["WfasicDevice", "WfasicDriver", "DriverError"]


class DriverError(RuntimeError):
    """Misuse of the driver API (bad configuration, premature reads)."""


class WfasicDevice:
    """Hardware side: accelerator + registers + DMA port + interrupt."""

    def __init__(self, config: WfasicConfig, memory: MainMemory) -> None:
        self.base_config = config
        self.registers = RegisterFile()
        self.axi_full = AxiFull(memory)
        self.irq = InterruptLine()
        self.registers.on_start(self._start)
        self.last_batch: BatchResult | None = None

    def _start(self) -> None:
        regs = self.registers
        regs.hw_set(Reg.STATUS_IDLE, 0)
        cfg = self.base_config.with_backtrace(bool(regs.read(Reg.BT_ENABLE)))
        accel = WfasicAccelerator(cfg)
        src = regs.read(Reg.SRC_ADDR)
        size = regs.read(Reg.SRC_SIZE)
        image = self.axi_full.read_stream(src, size)
        result = accel.run_image(image, regs.read(Reg.MAX_READ_LEN))
        out = result.output.as_stream()
        self.axi_full.write_stream(regs.read(Reg.DST_ADDR), out)
        regs.hw_set(Reg.DST_SIZE, len(out))
        regs.hw_set(Reg.STATUS_IDLE, 1)
        self.last_batch = result
        if regs.read(Reg.IRQ_ENABLE):
            self.irq.raise_()


class WfasicDriver:
    """Software side: the standard configure/start/wait/read flow."""

    def __init__(self, device: WfasicDevice, memory: MainMemory) -> None:
        self.device = device
        self.memory = memory
        self.axi_lite = AxiLite(memory, device.registers)
        self._dst_addr: int | None = None
        self.poll_count = 0

    # -- register helpers --------------------------------------------------------

    def _reg_write(self, offset: int, value: int) -> None:
        self.axi_lite.write32(AxiLite.MMIO_BASE + offset, value)

    def _reg_read(self, offset: int) -> int:
        return self.axi_lite.read32(AxiLite.MMIO_BASE + offset)

    # -- the Fig. 4 flow ------------------------------------------------------------

    def configure(
        self,
        image: bytes,
        max_read_len: int,
        *,
        backtrace: bool,
        result_capacity: int,
        irq: bool = False,
    ) -> None:
        """Stage the input image and program the accelerator registers."""
        if max_read_len % 16:
            raise DriverError("MAX_READ_LEN must be divisible by 16 (§4.2)")
        src = self.memory.allocate(len(image))
        self.memory.write(src, image)
        dst = self.memory.allocate(result_capacity)
        self._dst_addr = dst
        self._reg_write(Reg.BT_ENABLE, int(backtrace))
        self._reg_write(Reg.MAX_READ_LEN, max_read_len)
        self._reg_write(Reg.SRC_ADDR, src)
        self._reg_write(Reg.SRC_SIZE, len(image))
        self._reg_write(Reg.DST_ADDR, dst)
        self._reg_write(Reg.IRQ_ENABLE, int(irq))

    def start(self) -> None:
        """Trigger the batch (CPU writes the Start register)."""
        if self._dst_addr is None:
            raise DriverError("configure() must run before start()")
        self._reg_write(Reg.CTRL_START, 1)

    def wait(self) -> None:
        """Wait for completion by polling Idle (§3)."""
        while not self._reg_read(Reg.STATUS_IDLE):
            self.poll_count += 1
        self.poll_count += 1  # the read that observed Idle

    def result_stream(self) -> AbstractContextManager[memoryview]:
        """The result bytes the accelerator wrote, as a read-only view of
        main memory valid inside a ``with`` block
        (:meth:`MainMemory.view`): the CPU parses the region in place."""
        if self._dst_addr is None:
            raise DriverError("no batch configured")
        if not self._reg_read(Reg.STATUS_IDLE):
            raise DriverError("accelerator still busy")
        size = self._reg_read(Reg.DST_SIZE)
        return self.memory.view(self._dst_addr, size)

    def run(
        self, image: bytes, max_read_len: int, *, backtrace: bool, irq: bool = False
    ) -> None:
        """configure + start + wait, with a generous result region; read
        the results with :meth:`result_stream`.

        Backtrace streams can dwarf the input (§4.1: ~10 MB per 10 kbp
        pair at 10 % error), so the result region takes all memory left
        after the image.
        """
        capacity = self.memory.remaining - len(image) - 64
        if capacity <= 0:
            raise DriverError("no memory left for the result region")
        self.configure(
            image,
            max_read_len,
            backtrace=backtrace,
            result_capacity=capacity,
            irq=irq,
        )
        self.start()
        self.wait()
