"""The WFAsic accelerator model — the paper's primary contribution.

Public surface:

* :class:`WfasicConfig` — static configuration (Aligners, parallel
  sections, ``k_max``, MAX_READ_LEN, backtrace enable; Eq. 5/6 limits).
* :class:`WfasicAccelerator` — the top level (Fig. 5): runs input images
  through DMA/Extractor/Aligners/Collector with cycle accounting.
* :func:`batch_image` / :func:`batch_answers` — the CPU's side of every
  batch: the input image and MAX_READ_LEN, and the per-pair answers.
* :class:`Aligner` — one Aligner module (Extend/Compute parallel
  sections over banked wavefront vectors); :meth:`Aligner.trace` is its
  dataflow and :func:`price` the cycles of a trace at any section count
  and :class:`AlignerTimings`.
* :class:`CpuBacktracer` — the CPU-side backtrace over the streamed
  origin data, with and without data separation (§4.5).
* :func:`asic_report` — GF22FDX area/memory/frequency/power model.
* :func:`max_efficient_aligners` — Eq. 7.
* ``packets`` — byte-exact memory formats of the co-design interface.
"""

from .accelerator import (
    BatchResult,
    ScheduledAlignment,
    WfasicAccelerator,
    batch_answers,
    batch_image,
    max_efficient_aligners,
    schedule_makespan,
)
from .aligner import Aligner, AlignerRun, AlignerStats, AlignerTimings, AlignerTrace, price
from .aligner_ram import RamAccurateAligner
from .asic_model import (
    GF22_FREQUENCY_HZ,
    GF22_POWER_W,
    AsicReport,
    MacroInventory,
    asic_report,
    configs_within_budget,
)
from .backtrace_cpu import (
    BacktraceStreamError,
    CpuBacktraceResult,
    CpuBacktraceWork,
    CpuBacktracer,
    StepIndex,
)
from .collector import CollectorBT, CollectorNBT, CollectorOutput
from .config import AXI_DATA_BYTES, BASES_PER_RAM_WORD, WfasicConfig
from .dma import DmaTimings, read_pair_cycles, stream_cycles
from .extractor import ExtractedJob, Extractor
from .fpga_model import U280, FpgaReport, fpga_report
from .fifo import FifoError, ShowAheadFifo
from .pipeline import FluidPipelineSim, PipelineJob, PipelineResult

__all__ = [
    "AXI_DATA_BYTES",
    "Aligner",
    "AlignerRun",
    "AlignerStats",
    "AlignerTimings",
    "AlignerTrace",
    "AsicReport",
    "BASES_PER_RAM_WORD",
    "BacktraceStreamError",
    "BatchResult",
    "CollectorBT",
    "CollectorNBT",
    "CollectorOutput",
    "CpuBacktraceResult",
    "CpuBacktraceWork",
    "CpuBacktracer",
    "DmaTimings",
    "ExtractedJob",
    "FluidPipelineSim",
    "FpgaReport",
    "Extractor",
    "FifoError",
    "GF22_FREQUENCY_HZ",
    "GF22_POWER_W",
    "MacroInventory",
    "PipelineJob",
    "PipelineResult",
    "RamAccurateAligner",
    "ScheduledAlignment",
    "ShowAheadFifo",
    "StepIndex",
    "U280",
    "WfasicAccelerator",
    "WfasicConfig",
    "asic_report",
    "batch_answers",
    "batch_image",
    "configs_within_budget",
    "fpga_report",
    "max_efficient_aligners",
    "price",
    "read_pair_cycles",
    "schedule_makespan",
    "stream_cycles",
]
