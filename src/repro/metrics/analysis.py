"""Batch analysis: utilisation and cycle breakdowns.

Turns a :class:`~repro.wfasic.accelerator.BatchResult` schedule into the
quantities a hardware evaluation cares about — how busy each Aligner and
the input path were, where the makespan went — feeding the design-space
example and the Fig. 10 saturation story (idle Aligners beyond Eq. 7's
knee show up directly as utilisation loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..wfasic.accelerator import BatchResult

__all__ = ["BatchAnalysis", "analyse_batch"]


@dataclass(frozen=True)
class BatchAnalysis:
    """Derived utilisation metrics of one accelerator batch."""

    makespan: int
    num_pairs: int
    num_aligners: int
    #: Fraction of aligner-cycles spent aligning (1.0 = no idling).
    aligner_utilisation: float
    #: Fraction of the makespan the input path spent streaming.
    reader_utilisation: float
    #: Fraction of the makespan the output path spent streaming.
    output_utilisation: float
    #: Mean per-pair wait between read completion and its read start
    #: (input-path queueing, the §5.3 bandwidth bottleneck signature).
    mean_read_wait: float

    @property
    def input_bound(self) -> bool:
        """Heuristic: the batch is limited by the input path.

        The reader never reaches 100 % because the makespan includes the
        tail where the last alignments drain after the final read.
        """
        return self.reader_utilisation > 0.75 and self.aligner_utilisation < 0.6


def analyse_batch(result: BatchResult) -> BatchAnalysis:
    """Compute utilisation metrics from a batch's schedule."""
    makespan = result.total_cycles
    pairs = len(result.runs)
    aligners = result.config.num_aligners
    if makespan == 0 or pairs == 0:
        return BatchAnalysis(
            makespan=0,
            num_pairs=pairs,
            num_aligners=aligners,
            aligner_utilisation=0.0,
            reader_utilisation=0.0,
            output_utilisation=0.0,
            mean_read_wait=0.0,
        )
    align_cycles = sum(run.cycles for run in result.runs)
    read_cycles = result.reading_cycles_per_pair * pairs
    waits = []
    expected_start = 0
    for sched in result.schedule:
        waits.append(sched.read_start - expected_start)
        expected_start = sched.read_end
    return BatchAnalysis(
        makespan=makespan,
        num_pairs=pairs,
        num_aligners=aligners,
        aligner_utilisation=align_cycles / (makespan * aligners),
        reader_utilisation=read_cycles / makespan,
        output_utilisation=result.output_cycles / makespan,
        mean_read_wait=sum(waits) / len(waits),
    )
