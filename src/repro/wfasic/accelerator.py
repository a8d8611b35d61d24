"""WFAsic top level (§4.1 / Fig. 5): DMA -> Extractor -> Aligners -> Collector.

The accelerator streams pair records from main memory into the Input
FIFO; the Extractor dispatches each pair to an idle Aligner; results flow
through the active Collector and the Output FIFO back to memory.

Batch timing is an event schedule over two serial resources:

* the **input path** (DMA + Extractor): one pair record at a time, at the
  Table-1 reading cost — and a pair can only be extracted once an Aligner
  is idle to receive it (§4.2),
* the **output path** (Collector + DMA): all result transactions share
  the 16-byte output port.

With one Aligner the batch time is essentially ``sum(read_i + align_i)``;
with ``A`` Aligners reads pipeline against alignments and the makespan
saturates once ``A`` exceeds Eq. 7's ``MaxAligners`` — this schedule is
what Figure 10 measures.  Every job runs first, then
:func:`schedule_alignments` places the runs.

The CPU's side of every batch is here too: :func:`batch_image` (Fig. 4
step 1) and :func:`batch_answers` (step 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..align.cigar import Cigar
from ..workloads.generator import SequencePair
from .aligner import Aligner, AlignerRun, AlignerTimings
from .backtrace_cpu import CpuBacktracer, CpuBacktraceWork
from .collector import CollectorBT, CollectorNBT, CollectorOutput
from .config import WfasicConfig
from .dma import DmaTimings, read_pair_cycles, stream_cycles
from .extractor import ExtractedJob, Extractor
from .packets import encode_input_image, round_up_read_len

__all__ = [
    "BatchAnswers",
    "BatchResult",
    "ScheduledAlignment",
    "WfasicAccelerator",
    "batch_answers",
    "batch_image",
    "max_efficient_aligners",
    "schedule_alignments",
    "schedule_makespan",
]


@dataclass(frozen=True)
class ScheduledAlignment:
    """One pair's trip through the accelerator."""

    alignment_id: int
    aligner_index: int
    read_start: int
    read_end: int
    align_end: int


def schedule_alignments(
    reading_cycles: int, jobs: Sequence[tuple[int, int]], num_aligners: int
) -> list[ScheduledAlignment]:
    """The §4.1 schedule of ``(alignment_id, alignment_cycles)`` jobs.

    The input path streams one pair at a time, and a pair is read only
    when an Aligner is idle to receive it (§4.2); each pair goes to the
    Aligner that frees first (the lowest index on ties), and alignments
    proceed in parallel on ``num_aligners`` Aligners.
    """
    if num_aligners < 1:
        raise ValueError("num_aligners must be >= 1")
    if reading_cycles < 0:
        raise ValueError("reading_cycles must be >= 0")
    reader_free = 0
    aligner_free = [0] * num_aligners
    schedule: list[ScheduledAlignment] = []
    for alignment_id, cycles in jobs:
        idx = min(range(num_aligners), key=aligner_free.__getitem__)
        read_start = max(reader_free, aligner_free[idx])
        reader_free = read_end = read_start + reading_cycles
        aligner_free[idx] = read_end + cycles
        schedule.append(
            ScheduledAlignment(alignment_id, idx, read_start, read_end, read_end + cycles)
        )
    return schedule


def schedule_makespan(
    reading_cycles: int, alignment_cycles: list[int], num_aligners: int
) -> int:
    """The last finish of :func:`schedule_alignments` over known cycle
    costs, so scalability sweeps (Fig. 10) can re-schedule measured
    per-pair costs without re-simulating every alignment."""
    schedule = schedule_alignments(
        reading_cycles, list(enumerate(alignment_cycles)), num_aligners
    )
    return max((s.align_end for s in schedule), default=0)


def max_efficient_aligners(alignment_cycles: int, reading_cycles: int) -> int:
    """Eq. 7: ``MaxAligners = roundup(Alignment_cycles / Reading_cycles) + 1``.

    Beyond this count the input path is saturated and extra Aligners idle.
    """
    if reading_cycles <= 0:
        raise ValueError("reading_cycles must be > 0")
    if alignment_cycles < 0:
        raise ValueError("alignment_cycles must be >= 0")
    return -(-alignment_cycles // reading_cycles) + 1


@dataclass
class BatchResult:
    """Outcome of one accelerator batch."""

    runs: list[AlignerRun]
    schedule: list[ScheduledAlignment]
    output: CollectorOutput
    #: Makespan in accelerator clock cycles (compute + input path).
    total_cycles: int
    #: Cycles the output path needs for all result transactions.
    output_cycles: int
    max_read_len: int
    reading_cycles_per_pair: int
    config: WfasicConfig = field(repr=False, default_factory=WfasicConfig)

    @property
    def alignment_cycles(self) -> list[int]:
        return [run.cycles for run in self.runs]

    def run_for(self, alignment_id: int) -> AlignerRun:
        for run in self.runs:
            if run.alignment_id == alignment_id:
                return run
        raise KeyError(f"no run with alignment ID {alignment_id}")


def batch_image(
    pairs: Sequence[SequencePair], config: WfasicConfig
) -> tuple[bytes, int]:
    """A batch's input image and the MAX_READ_LEN the CPU programs.

    MAX_READ_LEN is the longest read rounded up to whole sections (§4.2),
    clamped to the hardware limit: a longer read is truncated in the
    image but keeps its true length in the header, so the Extractor marks
    it unsupported and its answer comes back with Success cleared.
    """
    longest = max((p.max_length for p in pairs), default=1)
    max_read_len = min(round_up_read_len(longest), config.max_read_len)
    return encode_input_image(pairs, max_read_len), max_read_len


@dataclass
class BatchAnswers:
    """Per-pair answers of one batch, keyed by alignment ID."""

    scores: dict[int, int]
    success: dict[int, bool]
    #: ``None`` with backtrace off and for a failed alignment.
    cigars: dict[int, Cigar | None]
    #: The CPU backtrace's work; ``None`` with backtrace off.
    backtrace_work: CpuBacktraceWork | None


def batch_answers(
    batch: BatchResult,
    pairs: Sequence[SequencePair],
    *,
    stream: bytes | bytearray | memoryview | None = None,
    separate: bool | None = None,
) -> BatchAnswers:
    """Score, Success and CIGAR of every pair of a finished batch.

    Scores and Success come from the Aligner runs (0 and cleared for an
    unsupported pair).  With backtrace on, the CPU backtraces the result
    ``stream`` (§4.5; by default the Collector's output) and its
    records supply the answers.  ``separate`` picks the §4.5 method and
    defaults to separation when more than one Aligner interleaves.
    """
    cfg = batch.config
    scores = {r.alignment_id: r.score for r in batch.runs}
    success = {r.alignment_id: r.success for r in batch.runs}
    cigars: dict[int, Cigar | None] = dict.fromkeys(scores)
    if not cfg.backtrace:
        return BatchAnswers(scores, success, cigars, None)
    results, work = CpuBacktracer(cfg).process(
        batch.output.as_stream() if stream is None else stream,
        {p.pair_id: (p.pattern, p.text) for p in pairs},
        separate=cfg.num_aligners > 1 if separate is None else separate,
    )
    for res in results:
        scores[res.alignment_id] = res.score
        success[res.alignment_id] = res.success
        cigars[res.alignment_id] = res.cigar
    return BatchAnswers(scores, success, cigars, work)


class WfasicAccelerator:
    """A configured WFAsic instance operating on input images."""

    def __init__(
        self,
        config: WfasicConfig | None = None,
        *,
        aligner_timings: AlignerTimings | None = None,
        dma_timings: DmaTimings | None = None,
    ) -> None:
        self.config = config or WfasicConfig.paper_default()
        self.aligner_timings = aligner_timings or AlignerTimings()
        self.dma_timings = dma_timings or DmaTimings()

    # -- batch execution ---------------------------------------------------

    def run_image(self, image: bytes, max_read_len: int) -> BatchResult:
        """Process a whole input image (Fig. 4 steps 2-3).

        ``max_read_len`` is the batch MAX_READ_LEN the CPU configured over
        AXI-Lite; it must not exceed the hardware limit.
        """
        cfg = self.config
        if max_read_len > cfg.max_read_len:
            raise ValueError(
                f"batch MAX_READ_LEN {max_read_len} exceeds the hardware "
                f"limit {cfg.max_read_len}"
            )
        extractor = Extractor(max_read_len)
        jobs = extractor.extract_image(image)
        return self._run_jobs(jobs, max_read_len)

    def run_pairs(self, pairs: Sequence[SequencePair]) -> BatchResult:
        """Run ``pairs`` as one batch, straight from their
        :func:`batch_image` (no SoC memory in between)."""
        return self.run_image(*batch_image(pairs, self.config))

    def _run_jobs(self, jobs: list[ExtractedJob], max_read_len: int) -> BatchResult:
        cfg = self.config
        read_cycles = read_pair_cycles(max_read_len, self.dma_timings)
        # A job's run depends only on the job (Aligners keep no state
        # between pairs), so one model runs every job and the §4.1
        # schedule then places the runs on the hardware Aligners.
        aligner = Aligner(cfg, self.aligner_timings)
        runs = [aligner.run(job) for job in jobs]
        schedule = schedule_alignments(
            read_cycles,
            [(run.alignment_id, run.cycles) for run in runs],
            cfg.num_aligners,
        )

        # Result framing through the active Collector.
        if cfg.backtrace:
            collector = CollectorBT(cfg.bt_block_bytes)
            output = collector.interleave(runs, cfg.num_aligners)
        else:
            output = CollectorNBT().collect(runs)

        output_cycles = stream_cycles(output.num_transactions, self.dma_timings)
        compute_makespan = max((s.align_end for s in schedule), default=0)
        # Output transactions stream concurrently with computation; the
        # batch is done when both paths drain.
        total = max(compute_makespan, output_cycles)
        return BatchResult(
            runs=runs,
            schedule=schedule,
            output=output,
            total_cycles=total,
            output_cycles=output_cycles,
            max_read_len=max_read_len,
            reading_cycles_per_pair=read_cycles,
            config=cfg,
        )
