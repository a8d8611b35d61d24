"""The Compute sub-module model (§4.3.3).

Each parallel section's Compute sub-module evaluates Eq. 3 for one cell
of the frame column; the ``n_ps`` sections work in lockstep on one group
of consecutive diagonals per access cycle.  Per group, the banked RAM
organisation of Fig. 6 requires:

* one parallel read of the ``s - o - e`` M column (the duplicated edge
  banks make the ``k-1``/``k+1`` windows conflict-free),
* one parallel read of the ``s - x`` M column (sequential with the first
  read — the paper chose two sequential accesses over more replication),
* one parallel read of the I/D window (overlapped with the M reads),
* one parallel write of the results.

The functional part is the shared :func:`repro.align.kernels.compute_kernel`
(with origin emission when backtrace is on); the cycle charge per group
follows the access schedule above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..align.kernels import ComputeOutput, compute_kernel

__all__ = ["ComputeTimings", "ComputeStage"]


@dataclass(frozen=True)
class ComputeTimings:
    """Cycle constants of the Compute access schedule.

    ``cycles_per_group`` = 2 sequential M-window reads + 1 write; the I/D
    read and the origin concatenation overlap the M accesses.
    ``step_overhead`` covers frame-column rotation, score tagging and the
    termination check once per wavefront step (§4.3.1).
    """

    cycles_per_group: int = 3
    step_overhead: int = 2


class ComputeStage:
    """Functional + cycle model of one frame column's computation."""

    def __init__(
        self,
        group_size: int,
        *,
        emit_origins: bool,
        timings: ComputeTimings | None = None,
    ) -> None:
        self.group_size = group_size
        self.emit_origins = emit_origins
        self.timings = timings or ComputeTimings()

    def run(
        self,
        m_x: np.ndarray,
        m_oe_km1: np.ndarray,
        i_e_km1: np.ndarray,
        m_oe_kp1: np.ndarray,
        d_e_kp1: np.ndarray,
        ks: np.ndarray,
        n: int,
        m: int,
        *,
        out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> tuple[ComputeOutput, int]:
        """Compute one frame column; returns (kernel output, cycles).

        ``out`` receives the new M, I and D cells, as in the kernel."""
        out = compute_kernel(
            m_x,
            m_oe_km1,
            i_e_km1,
            m_oe_kp1,
            d_e_kp1,
            ks,
            n,
            m,
            emit_origins=self.emit_origins,
            out=out,
        )
        width = len(ks)
        n_groups = -(-width // self.group_size)
        cycles = (
            n_groups * self.timings.cycles_per_group + self.timings.step_overhead
        )
        return out, cycles
