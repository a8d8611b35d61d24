"""ASCII Gantt rendering of accelerator batch schedules.

Turns a :class:`~repro.wfasic.accelerator.BatchResult` schedule into a
text timeline — one row per Aligner plus the input path — so examples
and debugging sessions can *see* the Fig. 10 behaviour: reads
serialising, alignments overlapping, Aligners idling past Eq. 7's knee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..wfasic.accelerator import BatchResult

__all__ = ["render_schedule"]


def render_schedule(result: BatchResult, *, width: int = 72) -> str:
    """Render the batch schedule as an ASCII Gantt chart.

    Reads are drawn as ``r`` on the shared input row; each Aligner row
    shows its alignments as digit blocks (the pair's ID modulo 10).
    """
    if width < 16:
        raise ValueError("width must be >= 16")
    if not result.schedule:
        return "(empty batch)"
    span = max(s.align_end for s in result.schedule)
    if span == 0:
        return "(zero-length batch)"
    scale = width / span

    def col(t: int) -> int:
        return min(width - 1, int(t * scale))

    reader_row = [" "] * width
    aligner_rows = {
        idx: [" "] * width
        for idx in sorted({s.aligner_index for s in result.schedule})
    }
    for sched in result.schedule:
        for c in range(col(sched.read_start), col(sched.read_end) + 1):
            reader_row[c] = "r"
        digit = str(sched.alignment_id % 10)
        for c in range(col(sched.read_end), col(sched.align_end) + 1):
            aligner_rows[sched.aligner_index][c] = digit

    lines = [f"cycles 0..{span} ({span / width:.0f} cycles/char)"]
    lines.append(f"{'input':>9} |" + "".join(reader_row))
    for idx, row in aligner_rows.items():
        lines.append(f"aligner {idx:>1} |" + "".join(row))
    return "\n".join(lines)
