"""Scalar WaveFront Alignment (WFA) — Eq. 3/4 of the paper.

This module is the software analog of the "WFA-CPU scalar code" [14] that
the paper uses as its baseline, and the algorithmic reference for the
WFAsic accelerator simulator.  It follows the paper's conventions exactly:

* offsets run along sequence ``b`` (the *text*): ``offset = j``,
* diagonals are ``k = j - i`` so ``i = offset - k`` (Eq. 4),
* wavefronts are *penalty-indexed*: ``M[s]``, ``I[s]`` and ``D[s]`` hold,
  per diagonal, the furthest offset reachable with penalty exactly ``s``,
* the recurrence is Eq. 3 (max-plus over predecessor wavefronts at
  ``s - x``, ``s - o - e`` and ``s - e``),
* the two operators are ``extend()`` (greedy match run along each
  diagonal) and ``compute()`` (next wavefront from the recurrence),
* termination: the ``M`` wavefront reaches cell ``(n, m)``, i.e. offset
  ``m`` on diagonal ``k = m - n``.

The aligner is instrumented with :class:`WfaWorkCounters` so the SoC CPU
cost model (``repro.soc.cpu``) can convert abstract work into cycles
without re-running a per-character Python loop on huge inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cigar import Cigar
from .penalties import AffinePenalties, DEFAULT_PENALTIES

__all__ = [
    "BYTES_PER_CELL",
    "NULL_OFFSET",
    "PROG_NULL",
    "Wavefront",
    "WfaWorkCounters",
    "WfaResult",
    "WfaAligner",
    "wfa_align",
    "wfa_score",
]

#: Sentinel for "no alignment reaches this diagonal with this penalty".
#: Far more negative than any valid offset, but with headroom so that the
#: ``+1`` updates of Eq. 3 can never wrap it into the valid range.
NULL_OFFSET = -(2**30)

#: Progress sentinel for dead cells in the band-recentering heuristic;
#: far below any reachable ``2 * offset - k`` so dead cells never win.
PROG_NULL = -(2**62)

#: Bytes per stored wavefront cell (int64 offsets) in the memory model
#: behind :attr:`WfaWorkCounters.peak_wavefront_bytes`.
BYTES_PER_CELL = 8


@dataclass
class Wavefront:
    """One wavefront vector: offsets for diagonals ``lo..hi`` inclusive.

    ``offsets[k - lo]`` is the furthest offset on diagonal ``k``;
    :data:`NULL_OFFSET` marks unreachable diagonals (the "invalid cells"
    that the hardware initialises to negative values, §4.3.1).
    """

    lo: int
    hi: int
    offsets: np.ndarray

    @classmethod
    def null(cls, lo: int, hi: int) -> "Wavefront":
        return cls(lo, hi, np.full(hi - lo + 1, NULL_OFFSET, dtype=np.int64))

    def get(self, k: int) -> int:
        """Offset on diagonal ``k`` (NULL_OFFSET outside ``lo..hi``)."""
        if self.lo <= k <= self.hi:
            return int(self.offsets[k - self.lo])
        return NULL_OFFSET

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Offsets for diagonals ``lo..hi`` padded with NULL outside range."""
        out = np.full(hi - lo + 1, NULL_OFFSET, dtype=np.int64)
        src_lo = max(lo, self.lo)
        src_hi = min(hi, self.hi)
        if src_lo <= src_hi:
            out[src_lo - lo : src_hi - lo + 1] = self.offsets[
                src_lo - self.lo : src_hi - self.lo + 1
            ]
        return out

    @property
    def num_cells(self) -> int:
        return self.hi - self.lo + 1


@dataclass
class WfaWorkCounters:
    """Abstract work performed by one alignment.

    These counters are the contract between the algorithm and the CPU
    cycle-cost model: the model multiplies them by per-operation costs
    (see ``repro.soc.cpu``) instead of timing Python.
    """

    #: Score values attempted (including ones whose wavefront was empty).
    score_iterations: int = 0
    #: Wavefront steps that actually produced a wavefront.
    wavefront_steps: int = 0
    #: M/I/D cells computed by Eq. 3 (wavefront slots touched by compute).
    cells_computed: int = 0
    #: Character-vs-character comparisons performed by extend().
    extend_comparisons: int = 0
    #: Total matched characters credited by extend().
    extend_matches: int = 0
    #: Peak live wavefront width (diagonals), a memory-footprint proxy.
    peak_wavefront_width: int = 0
    #: Total wavefront cells allocated over the run (memory traffic proxy).
    cells_allocated: int = 0
    #: Live cells discarded by adaptive band pruning (0 on exact runs; 0
    #: also proves a banded result is bit-identical to the exact one).
    band_pruned_cells: int = 0
    #: Peak bytes of simultaneously *stored* wavefront cells (int64 each).
    #: This is the semantic memory model: with backtrace every stored
    #: generation counts until the run ends; without it, cells leave the
    #: model when they fall out of the recurrence window.
    peak_wavefront_bytes: int = 0

    def merge(self, other: "WfaWorkCounters") -> None:
        self.score_iterations += other.score_iterations
        self.wavefront_steps += other.wavefront_steps
        self.cells_computed += other.cells_computed
        self.extend_comparisons += other.extend_comparisons
        self.extend_matches += other.extend_matches
        self.peak_wavefront_width = max(
            self.peak_wavefront_width, other.peak_wavefront_width
        )
        self.cells_allocated += other.cells_allocated
        self.band_pruned_cells += other.band_pruned_cells
        self.peak_wavefront_bytes = max(
            self.peak_wavefront_bytes, other.peak_wavefront_bytes
        )


@dataclass(frozen=True)
class WfaResult:
    """Outcome of a WFA alignment.

    ``reached_end`` is always ``True`` on exact runs.  Under adaptive
    banding it is ``False`` when the band lost the optimal path and the
    run was abandoned (``score`` is then ``-1`` and ``cigar`` ``None``);
    callers must retry such pairs with an exact aligner.
    """

    score: int
    cigar: Cigar | None
    work: WfaWorkCounters = field(repr=False, default_factory=WfaWorkCounters)
    reached_end: bool = True


class WfaAligner:
    """Exact gap-affine WFA aligner (scalar reference implementation).

    Parameters
    ----------
    penalties:
        Gap-affine penalty set; defaults to the paper's ``(4, 6, 2)``.
    keep_backtrace:
        Store all wavefronts so a CIGAR can be reconstructed.  Disable for
        score-only runs on very long sequences (memory drops to the
        recurrence window, exactly like the hardware, §4.3.1).
    band_width:
        Adaptive wavefront band (Scrooge/ABSW direction): after every
        wavefront step, keep only ``band_width`` diagonals re-centered on
        the furthest-reaching cell, so peak memory is O(band x score)
        instead of O(length x score).  Results are bit-identical to exact
        WFA whenever the optimal path stays in band
        (``work.band_pruned_cells == 0`` is a sufficient witness); when
        the band loses the path the run ends with ``reached_end=False``
        instead of raising, and the caller retries exactly.
    """

    def __init__(
        self,
        penalties: AffinePenalties = DEFAULT_PENALTIES,
        *,
        keep_backtrace: bool = True,
        band_width: int | None = None,
    ) -> None:
        if band_width is not None and band_width < 1:
            raise ValueError(f"band_width must be >= 1, got {band_width}")
        self.penalties = penalties
        self.keep_backtrace = keep_backtrace
        self.band_width = band_width

    # -- public API ----------------------------------------------------

    def align(self, a: str, b: str) -> WfaResult:
        """Align pattern ``a`` against text ``b`` end to end."""
        n, m = len(a), len(b)
        p = self.penalties
        work = WfaWorkCounters()

        av = np.frombuffer(a.encode("ascii"), dtype=np.uint8)
        bv = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
        k_final = m - n

        # Wavefront stores, indexed by penalty score.
        M: dict[int, Wavefront] = {}
        I: dict[int, Wavefront] = {}
        D: dict[int, Wavefront] = {}

        # s = 0: single M cell at k = 0, offset 0, then extend.
        wf0 = Wavefront(0, 0, np.zeros(1, dtype=np.int64))
        self._extend(wf0, av, bv, work)
        M[0] = wf0
        work.cells_allocated += 1
        work.peak_wavefront_width = 1
        live_cells = 1
        work.peak_wavefront_bytes = BYTES_PER_CELL * live_cells
        if wf0.get(k_final) == m:
            cigar = self._backtrace(a, b, M, I, D, 0) if self.keep_backtrace else None
            return WfaResult(score=0, cigar=cigar, work=work)

        x, oe, e = p.mismatch, p.gap_open_total, p.gap_extend
        step = p.score_granularity
        span = p.max_window_span()
        hard_cap = 2 * p.gap_open + e * (n + m) + x  # no alignment can cost more

        s = 0
        last_live_s = 0
        while True:
            s += step
            if s > hard_cap:
                if self.band_width is not None:
                    return WfaResult(score=-1, cigar=None, work=work, reached_end=False)
                raise AssertionError(
                    f"WFA failed to terminate below the hard score cap {hard_cap}"
                )
            work.score_iterations += 1

            # Once no wavefront exists inside the recurrence window, none
            # can ever appear again: the banded run is dead (the band lost
            # the optimal path and every survivor ran off the matrix).
            if self.band_width is not None and s - last_live_s > span:
                return WfaResult(score=-1, cigar=None, work=work, reached_end=False)

            if not self.keep_backtrace:
                live_cells -= self._evict(M, I, D, s, p)

            src_mx = M.get(s - x)
            src_moe = M.get(s - oe)
            src_ie = I.get(s - e)
            src_de = D.get(s - e)
            if src_mx is None and src_moe is None and src_ie is None and src_de is None:
                continue

            wf_m, wf_i, wf_d = self._compute(
                s, src_mx, src_moe, src_ie, src_de, n, m, work
            )
            if wf_m is None:
                continue
            self._extend(wf_m, av, bv, work)
            work.wavefront_steps += 1
            work.peak_wavefront_width = max(work.peak_wavefront_width, wf_m.num_cells)

            converged = wf_m.get(k_final) == m
            if (
                not converged
                and self.band_width is not None
                and wf_m.num_cells > self.band_width
            ):
                wf_m, wf_i, wf_d = self._prune_band(wf_m, wf_i, wf_d, work)

            M[s] = wf_m
            if wf_i is not None:
                I[s] = wf_i
            if wf_d is not None:
                D[s] = wf_d
            live_cells += wf_m.num_cells
            live_cells += wf_i.num_cells if wf_i is not None else 0
            live_cells += wf_d.num_cells if wf_d is not None else 0
            work.peak_wavefront_bytes = max(
                work.peak_wavefront_bytes, BYTES_PER_CELL * live_cells
            )
            last_live_s = s

            if converged:
                cigar = (
                    self._backtrace(a, b, M, I, D, s) if self.keep_backtrace else None
                )
                return WfaResult(score=s, cigar=cigar, work=work)

    # -- operators -----------------------------------------------------

    def _extend(
        self, wf: Wavefront, av: np.ndarray, bv: np.ndarray, work: WfaWorkCounters
    ) -> None:
        """extend(): greedy match run along every diagonal of ``wf``.

        The scalar model compares characters one by one (the hardware
        Extend sub-module compares 16-base blocks; that difference lives
        in the cycle model, not here — the *result* is identical).
        """
        n, m = len(av), len(bv)
        for idx in range(wf.num_cells):
            offset = int(wf.offsets[idx])
            if offset < 0:
                continue
            k = wf.lo + idx
            i = offset - k
            j = offset
            matches = 0
            while i < n and j < m and av[i] == bv[j]:
                matches += 1
                i += 1
                j += 1
            # One extra comparison discovers the mismatch/boundary, unless
            # the run was cut by a sequence end.
            work.extend_comparisons += matches + (1 if (i < n and j < m) else 0)
            work.extend_matches += matches
            wf.offsets[idx] = offset + matches

    def _compute(
        self,
        s: int,
        src_mx: Wavefront | None,
        src_moe: Wavefront | None,
        src_ie: Wavefront | None,
        src_de: Wavefront | None,
        n: int,
        m: int,
        work: WfaWorkCounters,
    ) -> tuple[Wavefront | None, Wavefront | None, Wavefront | None]:
        """compute(): next M/I/D wavefronts from Eq. 3.

        Out-of-bounds offsets (``j > m`` or ``i > n``) are nulled: both
        cursors are monotone along any alignment path, so a cell past a
        sequence end can never reach ``(n, m)`` and is dead.
        """
        lo = min(w.lo for w in (src_mx, src_moe, src_ie, src_de) if w is not None) - 1
        hi = max(w.hi for w in (src_mx, src_moe, src_ie, src_de) if w is not None) + 1
        # Diagonals outside [-n, m] cannot hold any cell of the DP matrix.
        lo = max(lo, -n)
        hi = min(hi, m)
        if lo > hi:
            return None, None, None
        width = hi - lo + 1
        ks = np.arange(lo, hi + 1, dtype=np.int64)

        def win(w: Wavefront | None, shift: int) -> np.ndarray:
            if w is None:
                return np.full(width, NULL_OFFSET, dtype=np.int64)
            return w.window(lo + shift, hi + shift)

        m_oe_km1 = win(src_moe, -1)  # M[s-o-e, k-1]
        i_e_km1 = win(src_ie, -1)  # I[s-e, k-1]
        m_oe_kp1 = win(src_moe, +1)  # M[s-o-e, k+1]
        d_e_kp1 = win(src_de, +1)  # D[s-e, k+1]
        m_x_k = win(src_mx, 0)  # M[s-x, k]

        ins = np.maximum(m_oe_km1, i_e_km1) + 1
        dele = np.maximum(m_oe_kp1, d_e_kp1)
        sub = m_x_k + 1

        # Null dead cells *before* merging into M: offset beyond text end,
        # i = offset - k beyond pattern end, or no live source (negative).
        # A dead candidate must not shadow a live one in the max below.
        for arr in (ins, dele, sub):
            dead = (arr > m) | (arr - ks > n) | (arr < 0)
            arr[dead] = NULL_OFFSET

        mwf = np.maximum(np.maximum(ins, dele), sub)

        work.cells_computed += 3 * width
        work.cells_allocated += 3 * width

        # M dominates I and D cell-wise (Eq. 3 takes the max over them), so
        # an empty M wavefront implies I and D are empty too.
        if not (mwf >= 0).any():
            return None, None, None

        wf_m = Wavefront(lo, hi, mwf)
        wf_i = Wavefront(lo, hi, ins) if (ins >= 0).any() else None
        wf_d = Wavefront(lo, hi, dele) if (dele >= 0).any() else None
        return wf_m, wf_i, wf_d

    def _prune_band(
        self,
        wf_m: Wavefront,
        wf_i: Wavefront | None,
        wf_d: Wavefront | None,
        work: WfaWorkCounters,
    ) -> tuple[Wavefront, Wavefront | None, Wavefront | None]:
        """Trim M/I/D to ``band_width`` diagonals around the best cell.

        "Best" is the cell with the largest anti-diagonal progress
        ``i + j = 2 * offset - k`` (ABSW's re-centering heuristic applied
        to wavefront diagonals); ties resolve to the lowest diagonal.  All
        three matrices share one window so the recurrence stays coherent.
        Discarded *live* cells are tallied in ``band_pruned_cells``.
        """
        bw = self.band_width
        assert bw is not None
        lo, hi = wf_m.lo, wf_m.hi
        ks = np.arange(lo, hi + 1, dtype=np.int64)
        prog = np.where(wf_m.offsets >= 0, 2 * wf_m.offsets - ks, PROG_NULL)
        center = lo + int(np.argmax(prog))
        blo = max(lo, min(center - bw // 2, hi - bw + 1))
        bhi = blo + bw - 1

        def trim(wf: Wavefront | None) -> Wavefront | None:
            if wf is None:
                return None
            work.band_pruned_cells += int(
                ((wf.offsets >= 0) & ((ks < blo) | (ks > bhi))).sum()
            )
            window = wf.offsets[blo - lo : bhi - lo + 1].copy()
            if not (window >= 0).any():
                return None
            return Wavefront(blo, bhi, window)

        new_m = trim(wf_m)
        assert new_m is not None  # the max-progress cell is inside the band
        return new_m, trim(wf_i), trim(wf_d)

    def _evict(
        self,
        M: dict[int, Wavefront],
        I: dict[int, Wavefront],
        D: dict[int, Wavefront],
        s: int,
        p: AffinePenalties,
    ) -> int:
        """Drop wavefronts older than the recurrence window (score-only).

        Returns the number of cells evicted so the caller can keep the
        live-byte accounting behind ``peak_wavefront_bytes`` exact.
        """
        horizon = s - p.max_window_span()
        evicted = 0
        for store in (M, I, D):
            dead = [key for key in store if key < horizon]
            for key in dead:
                evicted += store[key].num_cells
                del store[key]
        return evicted

    # -- backtrace -------------------------------------------------------

    def _backtrace(
        self,
        a: str,
        b: str,
        M: dict[int, Wavefront],
        I: dict[int, Wavefront],
        D: dict[int, Wavefront],
        score: int,
    ) -> Cigar:
        return backtrace_wavefronts(a, b, M, I, D, score, self.penalties)


def backtrace_wavefronts(
    a: str,
    b: str,
    M: dict[int, Wavefront],
    I: dict[int, Wavefront],
    D: dict[int, Wavefront],
    score: int,
    penalties: AffinePenalties,
) -> Cigar:
    """backtrace(): walk Eq. 3 backwards from ``(n, m)`` to ``(0, 0)``.

    At each M cell the pre-extension value is re-derived from the
    predecessor wavefronts; the difference to the stored (post-extension)
    value is the number of matches contributed by extend().  Shared by the
    scalar and vectorized software aligners (the hardware path instead
    streams 5-bit origin codes and leaves the walk to the CPU model).
    """
    p = penalties
    x, oe, e = p.mismatch, p.gap_open_total, p.gap_extend
    n, m = len(a), len(b)

    ops: list[str] = []
    matrix = "M"
    s = score
    k = m - n
    v = m

    def mget(score_: int, k_: int) -> int:
        wf = M.get(score_)
        return wf.get(k_) if wf is not None else NULL_OFFSET

    def iget(score_: int, k_: int) -> int:
        wf = I.get(score_)
        return wf.get(k_) if wf is not None else NULL_OFFSET

    def dget(score_: int, k_: int) -> int:
        wf = D.get(score_)
        return wf.get(k_) if wf is not None else NULL_OFFSET

    while True:
        if matrix == "M":
            if s == 0:
                # Initial wavefront: v remaining characters are matches.
                ops.append("M" * v)
                if k != 0:
                    raise AssertionError("backtrace ended off diagonal 0")
                break
            sub = mget(s - x, k) + 1
            ins = iget(s, k)
            dele = dget(s, k)
            v0 = max(sub, ins, dele)
            if v0 < 0:
                raise AssertionError(
                    f"backtrace found no live source for M[{s},{k}]={v}"
                )
            if v0 > v:
                raise AssertionError(
                    f"inconsistent backtrace at M[{s},{k}]: {v0} > {v}"
                )
            ops.append("M" * (v - v0))
            v = v0
            # Valid offsets are always >= 0; a NULL source shifted by +1
            # stays hugely negative, so >= 0 is the validity test.
            if v == sub and sub >= 0:
                ops.append("X")
                s -= x
                v -= 1
            elif v == ins and ins >= 0:
                matrix = "I"
            elif v == dele and dele >= 0:
                matrix = "D"
            else:
                raise AssertionError(f"backtrace stuck at M[{s},{k}]={v}")
        elif matrix == "I":
            open_src = mget(s - oe, k - 1) + 1
            ext_src = iget(s - e, k - 1) + 1
            ops.append("I")
            if v == ext_src and ext_src >= 0:
                s -= e
            elif v == open_src and open_src >= 0:
                s -= oe
                matrix = "M"
            else:
                raise AssertionError(f"backtrace stuck at I[{s},{k}]={v}")
            k -= 1
            v -= 1
        else:  # matrix == "D"
            open_src = mget(s - oe, k + 1)
            ext_src = dget(s - e, k + 1)
            ops.append("D")
            if v == ext_src and ext_src >= 0:
                s -= e
            elif v == open_src and open_src >= 0:
                s -= oe
                matrix = "M"
            else:
                raise AssertionError(f"backtrace stuck at D[{s},{k}]={v}")
            k += 1

    return Cigar("".join(reversed(ops)))


def wfa_align(
    a: str, b: str, penalties: AffinePenalties = DEFAULT_PENALTIES
) -> WfaResult:
    """One-shot WFA alignment with backtrace."""
    return WfaAligner(penalties).align(a, b)


def wfa_score(a: str, b: str, penalties: AffinePenalties = DEFAULT_PENALTIES) -> int:
    """One-shot WFA score (low-memory, no backtrace)."""
    return WfaAligner(penalties, keep_backtrace=False).align(a, b).score
