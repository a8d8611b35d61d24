"""NumPy-vectorised WFA — the analog of the paper's RVV vector code.

Functionally identical to :class:`repro.align.wfa.WfaAligner` (same scores,
same optimal CIGARs), but both operators run as whole-wavefront numpy
kernels instead of per-cell Python:

* compute() is one :func:`repro.align.kernels.compute_kernel` call per
  score step (the RVV code vectorises the same loop across diagonals),
* extend() is :func:`repro.align.kernels.extend_kernel`, which compares
  8-byte words for every live diagonal at once (the RVV code and the
  hardware Extend sub-module likewise compare many bases per operation),
  over word arrays built once per alignment.

This engine is what makes 10 kbp / 10 %-error simulations tractable in
Python; the scalar aligner remains the readable reference and the oracle
cross-check for small inputs.
"""

from __future__ import annotations

import numpy as np

from .kernels import compute_kernel, extend_kernel, sequence_words
from .penalties import AffinePenalties, DEFAULT_PENALTIES
from .wfa import (
    NULL_OFFSET,
    ScoreLimitExceeded,
    Wavefront,
    WfaResult,
    WfaWorkCounters,
    backtrace_wavefronts,
)

__all__ = ["VectorizedWfaAligner", "wfa_align_vectorized"]

_SENTINEL_A = 0xFF
_SENTINEL_B = 0xFE


class VectorizedWfaAligner:
    """Exact gap-affine WFA with vectorised compute/extend.

    Parameters mirror :class:`repro.align.wfa.WfaAligner`; see there for
    semantics of ``keep_backtrace`` and ``max_score``.
    """

    def __init__(
        self,
        penalties: AffinePenalties = DEFAULT_PENALTIES,
        *,
        keep_backtrace: bool = True,
        max_score: int | None = None,
    ) -> None:
        self.penalties = penalties
        self.keep_backtrace = keep_backtrace
        self.max_score = max_score

    def align(self, a: str, b: str) -> WfaResult:
        """Align pattern ``a`` against text ``b`` end to end."""
        n, m = len(a), len(b)
        p = self.penalties
        work = WfaWorkCounters()
        aw = sequence_words(a, sentinel=_SENTINEL_A)
        bw = sequence_words(b, sentinel=_SENTINEL_B)
        k_final = m - n

        M: dict[int, Wavefront] = {}
        I: dict[int, Wavefront] = {}
        D: dict[int, Wavefront] = {}

        wf0 = Wavefront(0, 0, np.zeros(1, dtype=np.int64))
        ext = extend_kernel(aw, bw, n, m, wf0.offsets, 0)
        wf0.offsets[:] = ext.offsets
        work.extend_comparisons += ext.comparisons
        work.extend_matches += ext.matches
        work.cells_allocated += 1
        work.peak_wavefront_width = 1
        M[0] = wf0
        if wf0.get(k_final) == m:
            cigar = (
                backtrace_wavefronts(a, b, M, I, D, 0, p)
                if self.keep_backtrace
                else None
            )
            return WfaResult(score=0, cigar=cigar, work=work)

        x, oe, e = p.mismatch, p.gap_open_total, p.gap_extend
        step = p.score_granularity
        hard_cap = 2 * p.gap_open + e * (n + m) + x

        s = 0
        while True:
            s += step
            if self.max_score is not None and s > self.max_score:
                raise ScoreLimitExceeded(s, self.max_score, work)
            if s > hard_cap:
                raise AssertionError(
                    f"WFA failed to terminate below the hard score cap {hard_cap}"
                )
            work.score_iterations += 1

            src_mx = M.get(s - x)
            src_moe = M.get(s - oe)
            src_ie = I.get(s - e)
            src_de = D.get(s - e)
            sources = [w for w in (src_mx, src_moe, src_ie, src_de) if w is not None]
            if not sources:
                continue

            lo = max(min(w.lo for w in sources) - 1, -n)
            hi = min(max(w.hi for w in sources) + 1, m)
            if lo > hi:
                continue
            width = hi - lo + 1
            ks = np.arange(lo, hi + 1, dtype=np.int64)

            def win(w: Wavefront | None, shift: int) -> np.ndarray:
                if w is None:
                    return np.full(width, NULL_OFFSET, dtype=np.int64)
                return w.window(lo + shift, hi + shift)

            out = compute_kernel(
                win(src_mx, 0),
                win(src_moe, -1),
                win(src_ie, -1),
                win(src_moe, +1),
                win(src_de, +1),
                ks,
                n,
                m,
            )
            work.cells_computed += 3 * width
            work.cells_allocated += 3 * width
            if not out.any_live:
                continue

            ext = extend_kernel(aw, bw, n, m, out.m, lo)
            work.extend_comparisons += ext.comparisons
            work.extend_matches += ext.matches

            wf_m = Wavefront(lo, hi, ext.offsets)
            M[s] = wf_m
            if (out.i >= 0).any():
                I[s] = Wavefront(lo, hi, out.i)
            if (out.d >= 0).any():
                D[s] = Wavefront(lo, hi, out.d)
            work.wavefront_steps += 1
            work.peak_wavefront_width = max(work.peak_wavefront_width, width)

            if wf_m.get(k_final) == m:
                cigar = (
                    backtrace_wavefronts(a, b, M, I, D, s, p)
                    if self.keep_backtrace
                    else None
                )
                return WfaResult(score=s, cigar=cigar, work=work)

            if not self.keep_backtrace:
                horizon = s - p.max_window_span()
                for store in (M, I, D):
                    for key in [key for key in store if key < horizon]:
                        del store[key]


def wfa_align_vectorized(
    a: str, b: str, penalties: AffinePenalties = DEFAULT_PENALTIES
) -> WfaResult:
    """One-shot vectorised WFA alignment with backtrace."""
    return VectorizedWfaAligner(penalties).align(a, b)
