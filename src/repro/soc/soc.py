"""The SoC top level (Fig. 3): CPU + WFAsic + memory, plus the experiment
flows of §5.

:class:`Soc` wires the pieces together and exposes the two execution
flows every figure of the evaluation compares:

* :meth:`run_accelerated` — the co-design flow of Fig. 4: stage the
  image, drive the accelerator through the Linux-style driver, and (when
  backtrace is on) run the CPU backtrace over the result stream.
* :meth:`run_cpu` — the software WFA on the Sargantana core (scalar or
  RVV vector), functionally executed by ``repro.align`` and costed by
  the calibrated CPU model.

Both return cycle breakdowns in the *FPGA-prototype sense* (one shared
clock, as the paper measures): speedups are direct cycle ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..align.wfa import WfaWorkCounters
from ..align.wfa_vectorized import VectorizedWfaAligner
from ..obs.publish import publish_accelerator_batch
from ..wfasic.accelerator import BatchAnswers, BatchResult, batch_answers, batch_image
from ..wfasic.config import WfasicConfig
from ..workloads.generator import SequencePair
from .cpu import SargantanaModel
from .driver import WfasicDevice, WfasicDriver
from .memory import MainMemory

__all__ = ["AcceleratedOutcome", "CpuOutcome", "Soc"]


@dataclass
class AcceleratedOutcome(BatchAnswers):
    """Result of one accelerated batch (Fig. 4 flow): the per-pair
    answers plus the batch and its cycle costs."""

    batch: BatchResult
    #: Accelerator makespan in cycles (reading + aligning + output).
    accelerator_cycles: int
    #: CPU cycles spent on the backtrace step (0 with backtrace off).
    cpu_backtrace_cycles: int
    #: CPU cycles spent programming/polling the MMIO registers (§3).
    cpu_driver_cycles: int

    @property
    def total_cycles(self) -> int:
        """End-to-end cycles: driver programming, alignment, then the
        CPU backtrace (sequential, §3.1)."""
        return (
            self.cpu_driver_cycles
            + self.accelerator_cycles
            + self.cpu_backtrace_cycles
        )


@dataclass
class CpuOutcome:
    """Result of the software WFA flow on the CPU."""

    cycles: int
    scores: dict[int, int]
    per_pair_cycles: dict[int, int]
    work: WfaWorkCounters = field(default_factory=WfaWorkCounters)


class Soc:
    """The whole chip: Sargantana + WFAsic + 64 MB of main memory."""

    def __init__(
        self,
        config: WfasicConfig | None = None,
        *,
        memory_bytes: int = 64 * 1024 * 1024,
        cpu: SargantanaModel | None = None,
    ) -> None:
        self.config = config or WfasicConfig.paper_default()
        self.memory = MainMemory(memory_bytes)
        self.device = WfasicDevice(self.config, self.memory)
        self.driver = WfasicDriver(self.device, self.memory)
        self.cpu = cpu or SargantanaModel()

    # -- accelerated flow -----------------------------------------------------

    def run_accelerated(
        self,
        pairs: list[SequencePair],
        *,
        backtrace: bool | None = None,
        separate: bool | None = None,
        trace_tid_base: int = 0,
        trace_lane_prefix: str = "",
        trace_base_cycle: int | None = None,
    ) -> AcceleratedOutcome:
        """Fig. 4: CPU stages inputs, WFAsic aligns, CPU backtraces.

        The image and the answers come from the shared batch flow
        (:func:`~repro.wfasic.batch_image`,
        :func:`~repro.wfasic.batch_answers`): a read longer than the
        configured ``max_read_len`` is answered with Success cleared.
        ``backtrace`` defaults to the SoC configuration; ``separate``
        picks the CPU backtrace method and defaults to the §4.5 rule:
        separation only when more than one Aligner interleaves the
        stream.  The three ``trace_*`` knobs pass through to
        :func:`~repro.obs.publish.publish_accelerator_batch` so fleet
        runs can give each chip its own trace lanes anchored at the
        batch's simulated start cycle.
        """
        bt = self.config.backtrace if backtrace is None else backtrace
        image, max_read_len = batch_image(pairs, self.config)

        self.memory.reset_allocator()
        accesses_before = self.driver.axi_lite.reads + self.driver.axi_lite.writes
        self.driver.run(image, max_read_len, backtrace=bt, irq=True)
        batch = self.device.last_batch
        assert batch is not None
        # Cycle-stage counters (and, when tracing, the batch schedule on
        # the simulated timeline); CPU-side cycles publish from the
        # SargantanaModel conversion methods themselves.
        publish_accelerator_batch(
            batch,
            tid_base=trace_tid_base,
            lane_prefix=trace_lane_prefix,
            base_cycle=trace_base_cycle,
        )
        # The CPU parses the result region in place; nothing derived from
        # the view outlives this block.
        with self.driver.result_stream() as stream:
            answers = batch_answers(batch, pairs, stream=stream, separate=separate)
        register_accesses = (
            self.driver.axi_lite.reads + self.driver.axi_lite.writes
        ) - accesses_before
        driver_cycles = self.cpu.driver_cycles(register_accesses)
        cpu_bt_cycles = 0
        if answers.backtrace_work is not None:
            cpu_bt_cycles = self.cpu.backtrace_cycles(
                answers.backtrace_work, num_alignments=len(pairs)
            )

        return AcceleratedOutcome(
            **vars(answers),
            batch=batch,
            accelerator_cycles=batch.total_cycles,
            cpu_backtrace_cycles=cpu_bt_cycles,
            cpu_driver_cycles=driver_cycles,
        )

    # -- CPU-only flow -------------------------------------------------------------

    def run_cpu(
        self,
        pairs: list[SequencePair],
        *,
        vector: bool = False,
        backtrace: bool = True,
    ) -> CpuOutcome:
        """The software WFA [14] on the Sargantana core.

        The algorithm really runs (via the vectorised engine); the cycle
        total comes from the calibrated cost model.  The model reads
        ``cells_computed``, ``extend_comparisons``, ``score_iterations``,
        ``cells_allocated``, ``peak_wavefront_width``, ``extend_matches``
        and ``wavefront_steps``, on which the vectorised engine matches
        the scalar reference; it does not track ``peak_wavefront_bytes``
        (reported as 0), which the model does not read.
        """
        engine = VectorizedWfaAligner(self.config.penalties, keep_backtrace=False)
        total_work = WfaWorkCounters()
        per_pair: dict[int, int] = {}
        scores: dict[int, int] = {}
        total = 0
        for pair in pairs:
            result = engine.align(pair.pattern, pair.text)
            cycles = self.cpu.wfa_cycles(
                result.work, vector=vector, backtrace=backtrace
            )
            per_pair[pair.pair_id] = cycles
            scores[pair.pair_id] = result.score
            total += cycles
            total_work.merge(result.work)
        return CpuOutcome(
            cycles=total, scores=scores, per_pair_cycles=per_pair, work=total_work
        )
