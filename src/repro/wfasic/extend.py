"""The Extend sub-module model (§4.3.2).

Each parallel section owns one Extend sub-module fed from its private
Input_Seq RAM replicas.  The hardware pipeline: compute the two start
addresses from (offset, k), fetch two RAM words per sequence so the
comparator window can straddle a word boundary, shift-align, then compare
**16 bases per clock cycle after five initial cycles** until a mismatch
or a sequence end.

The model runs the functional part through the shared
:func:`repro.align.kernels.extend_kernel` (identical results to the
software WFA).  That kernel compares 8-byte words rather than 16-base
blocks; from each cell's match length ``L`` it derives the hardware's
block count in closed form, ``(L + 16 - at_end) // 16`` with ``at_end``
set when the run stopped at a sequence end.  Cycles are charged per the
pipeline description: a group of ``n_ps`` cells extends in lockstep
across the parallel sections, so the group's latency is the pipeline
fill plus the *longest* block run in the group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..align.kernels import ExtendOutput, extend_kernel

__all__ = ["ExtendTimings", "ExtendStage", "group_latencies"]


@dataclass(frozen=True)
class ExtendTimings:
    """Cycle constants of the Extend pipeline.

    ``pipeline_fill`` is straight from §4.3.2 ("the comparator compares 16
    bases of the sequences at each clock cycle, after five initial
    cycles"); ``cycles_per_block`` is one by construction of the 32-bit
    comparator.
    """

    pipeline_fill: int = 5
    cycles_per_block: int = 1


def group_latencies(
    blocks: np.ndarray, group_size: int, timings: ExtendTimings
) -> np.ndarray:
    """Latency of each lockstep group given per-cell block counts.

    Cells are grouped in band order (``group_size`` consecutive
    diagonals per group — one per parallel section).  A group's latency
    is ``pipeline_fill + cycles_per_block * max(blocks in group, 1)``:
    even a group of boundary cells (zero blocks) spends the fill cycles
    computing start addresses and detecting the boundary.
    """
    if len(blocks) == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.arange(0, len(blocks), group_size)
    per_group = np.maximum.reduceat(blocks, starts)
    np.maximum(per_group, 1, out=per_group)
    return timings.pipeline_fill + timings.cycles_per_block * per_group


class ExtendStage:
    """Functional + cycle model of one frame column's extension.

    :meth:`run` takes the :func:`repro.align.kernels.sequence_words`
    arrays of the two sequences, built once per alignment; the kernel
    compares 8-byte words and reports the 16-base block count each cell
    costs the hardware, which :func:`group_latencies` turns into cycles.
    """

    def __init__(
        self, group_size: int, timings: ExtendTimings | None = None
    ) -> None:
        self.group_size = group_size
        self.timings = timings or ExtendTimings()

    def run(
        self,
        a_words: np.ndarray,
        b_words: np.ndarray,
        n: int,
        m: int,
        offsets: np.ndarray,
        lo: int,
        *,
        out: np.ndarray | None = None,
    ) -> tuple[ExtendOutput, int]:
        """Extend one frame column; returns (kernel output, cycles).

        ``out`` is passed to the kernel: ``offsets`` itself extends the
        column in place."""
        out = extend_kernel(a_words, b_words, n, m, offsets, lo, out=out)
        cycles = int(group_latencies(out.blocks, self.group_size, self.timings).sum())
        return out, cycles
