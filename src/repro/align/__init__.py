"""Alignment-algorithm substrate: scoring models, DP oracles, and WFA.

Public surface:

* :class:`AffinePenalties` / :class:`LinearPenalties` — scoring models.
* :class:`Cigar` — alignment backtraces.
* :func:`swg_align` — gap-affine DP oracle (Eq. 2).
* :func:`sw_linear_align` — gap-linear DP (Eq. 1).
* :func:`wfa_align` / :class:`WfaAligner` — scalar WFA (Eq. 3/4).
* :func:`wfa_align_vectorized` / :class:`VectorizedWfaAligner` — numpy WFA
  one pair at a time (the SoC's CPU flow and the equivalence checker).
* :func:`wfa_align_batched` / :class:`BatchedWfaAligner` — cross-pair
  batched WFA: N pairs' wavefronts advanced in lockstep per numpy call.
* :mod:`repro.align.origin_walk` — backtrace from 5-bit origin codes,
  shared by the batched aligner and the simulator's CPU backtrace.
* :class:`StageProfiler` — per-stage wall-time/call counters.
* :class:`ScoreLattice` — reachable scores and theoretical wavefront bands.
"""

from .banded import BandedResult, banded_swg_score
from .cigar import Cigar, CigarError
from .lattice import Band, ScoreLattice
from .packing import pack_batch
from .penalties import DEFAULT_PENALTIES, AffinePenalties, LinearPenalties
from .profile import StageProfiler, format_profile
from .swg import SwgResult, swg_align, swg_score
from .swlinear import SwLinearResult, sw_linear_align, sw_linear_score
from .wfa import (
    NULL_OFFSET,
    Wavefront,
    WfaAligner,
    WfaResult,
    WfaWorkCounters,
    wfa_align,
    wfa_score,
)
from .wfa_batched import BatchedWfaAligner, wfa_align_batched
from .wfa_vectorized import VectorizedWfaAligner, wfa_align_vectorized

__all__ = [
    "AffinePenalties",
    "BandedResult",
    "Band",
    "BatchedWfaAligner",
    "Cigar",
    "CigarError",
    "DEFAULT_PENALTIES",
    "LinearPenalties",
    "NULL_OFFSET",
    "ScoreLattice",
    "StageProfiler",
    "SwLinearResult",
    "SwgResult",
    "VectorizedWfaAligner",
    "Wavefront",
    "WfaAligner",
    "WfaResult",
    "WfaWorkCounters",
    "banded_swg_score",
    "format_profile",
    "pack_batch",
    "sw_linear_align",
    "sw_linear_score",
    "swg_align",
    "swg_score",
    "wfa_align",
    "wfa_align_batched",
    "wfa_align_vectorized",
    "wfa_score",
]
