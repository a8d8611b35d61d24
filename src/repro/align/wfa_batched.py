"""Cross-pair batched WFA: many alignments' wavefronts in lockstep.

The vectorised aligner removed the per-*cell* Python loop; this module
removes the per-*pair* one.  For short reads the numpy work per score
step is tiny (a few dozen diagonals), so kernel dispatch overhead —
argument checking, array allocation, the interpreter itself — dominates
the per-pair aligners.  :class:`BatchedWfaAligner` therefore packs N
pairs into 2D arrays (pairs x diagonals, padded to the widest live
band) and runs :func:`repro.align.kernels.compute_kernel_batched` /
:func:`~repro.align.kernels.extend_kernel_batched` **once per score
step for the whole batch**, the software analog of the paper's 64
parallel hardware sections advancing one wavefront each per cycle.

Because penalties are shared across a batch, every pair's wavefront at
penalty ``s`` is computable in the same step: pairs differ only in their
band (tracked per row) and in when they converge.  Pairs whose ``M``
wavefront reaches ``(n, m)`` retire immediately — their rows are
compacted out of every live array (the read-only sequence words stay
put, indexed by original pair position) — so a batch never keeps paying
for finished pairs while stragglers run on (the "retire on converge"
rule).

Results are bit-identical to :class:`repro.align.wfa.WfaAligner`: the
per-row recurrence, band clamping, extension and backtrace are the same
math, just evaluated for all pairs at once, and the differential harness
(``tests/verify/test_differential.py``) enforces score + CIGAR parity
against the SWG oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import (
    BAND_ABSENT,
    band_prune_batched,
    batch_words,
    compute_kernel_batched,
    extend_kernel_batched,
    gather_window_batched,
)
from .packing import PackCache, pack_batch
from .penalties import AffinePenalties, DEFAULT_PENALTIES
from .profile import StageProfiler
from .wfa import (
    BYTES_PER_CELL,
    NULL_OFFSET,
    ScoreLimitExceeded,
    Wavefront,
    WfaResult,
    WfaWorkCounters,
    backtrace_wavefronts,
)

__all__ = ["BatchedWfaAligner", "wfa_align_batched"]

_SENTINEL_A = 0xFF
_SENTINEL_B = 0xFE


@dataclass
class _BatchRecord:
    """The M/I/D wavefronts of one score for every live pair.

    Row ``p`` of each data array covers diagonals ``lo..hi`` of that
    pair's band (padded to the batch-wide width); per-matrix ``lo`` is
    :data:`BAND_ABSENT` (and ``hi`` its negation) for pairs that have no
    wavefront in that matrix at this score, which makes every gather from
    the row come back NULL without a separate existence mask.
    """

    lo_m: np.ndarray
    hi_m: np.ndarray
    lo_i: np.ndarray
    hi_i: np.ndarray
    lo_d: np.ndarray
    hi_d: np.ndarray
    m: np.ndarray
    i: np.ndarray
    d: np.ndarray
    #: Per-row stored cells (band width x matrices actually live), the
    #: unit behind the ``peak_wavefront_bytes`` memory model.
    row_cells: np.ndarray

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired pairs' rows (``keep`` is a boolean row mask)."""
        self.lo_m = self.lo_m[keep]
        self.hi_m = self.hi_m[keep]
        self.lo_i = self.lo_i[keep]
        self.hi_i = self.hi_i[keep]
        self.lo_d = self.lo_d[keep]
        self.hi_d = self.hi_d[keep]
        self.m = self.m[keep]
        self.i = self.i[keep]
        self.d = self.d[keep]
        self.row_cells = self.row_cells[keep]


class BatchedWfaAligner:
    """Exact gap-affine WFA over a whole batch of pairs in lockstep.

    Parameters mirror :class:`repro.align.wfa.WfaAligner` where they
    overlap:

    penalties:
        Gap-affine penalties shared by every pair of a batch (the
        lockstep advance relies on a common score schedule).
    keep_backtrace:
        Store per-pair wavefront history so CIGARs can be recovered at
        retirement.  Off, only scores are produced and memory stays
        bounded by the recurrence window, exactly like the hardware.
    max_score:
        Abort threshold: raises :class:`ScoreLimitExceeded` as soon as
        the *batch* score passes it while any pair is unfinished (the
        whole call fails — a batch shares its score clock).
    pack_cache:
        Optional :class:`repro.align.packing.PackCache` so repeated
        sequences skip the string->uint8 packing step.
    profiler:
        Optional :class:`repro.align.profile.StageProfiler`; the aligner
        charges its ``pack`` / ``compute`` / ``extend`` / ``band`` /
        ``backtrace`` / ``retire`` stages to it.
    band_width:
        Adaptive wavefront band, same semantics (and bit-identical
        results) as ``WfaAligner(band_width=...)``: every surviving
        pair's M/I/D wavefronts are trimmed to ``band_width`` diagonals
        re-centered on the furthest-reaching cell after each step.
        Pairs whose band loses the optimal path retire with
        ``reached_end=False`` instead of raising; callers retry them
        exactly.
    """

    def __init__(
        self,
        penalties: AffinePenalties = DEFAULT_PENALTIES,
        *,
        keep_backtrace: bool = True,
        max_score: int | None = None,
        pack_cache: PackCache | None = None,
        profiler: StageProfiler | None = None,
        band_width: int | None = None,
    ) -> None:
        if band_width is not None and band_width < 1:
            raise ValueError(f"band_width must be >= 1, got {band_width}")
        self.penalties = penalties
        self.keep_backtrace = keep_backtrace
        self.max_score = max_score
        self.pack_cache = pack_cache
        self.profiler = profiler if profiler is not None else StageProfiler()
        self.band_width = band_width

    def align(self, a: str, b: str) -> WfaResult:
        """Single-pair convenience: a batch of one."""
        return self.align_batch([(a, b)])[0]

    def align_batch(self, pairs: Sequence[tuple[str, str]]) -> list[WfaResult]:
        """Align every ``(pattern, text)`` pair; results in input order."""
        num_pairs = len(pairs)
        if num_pairs == 0:
            return []
        for idx, (a, b) in enumerate(pairs):
            # Fail fast with the offending index: bytes (or any non-str)
            # otherwise surfaces as an opaque AttributeError deep inside
            # sequence packing, long after the bad pair's identity is lost.
            if not isinstance(a, str) or not isinstance(b, str):
                bad = a if not isinstance(a, str) else b
                raise TypeError(
                    f"pair {idx}: sequences must be str, got "
                    f"{type(bad).__name__}"
                )
        p = self.penalties
        prof = self.profiler
        results: list[WfaResult | None] = [None] * num_pairs

        with prof.stage("pack"):
            if self.pack_cache is not None:
                hits0, miss0 = self.pack_cache.hits, self.pack_cache.misses
            # Word matrices stay indexed by original pair position (the
            # extend kernel maps live rows through ``act``), so retiring
            # pairs never copies them; the byte matrices are dropped here.
            a_words = batch_words(
                pack_batch(
                    [a for a, _ in pairs], sentinel=_SENTINEL_A, cache=self.pack_cache
                )
            )
            b_words = batch_words(
                pack_batch(
                    [b for _, b in pairs], sentinel=_SENTINEL_B, cache=self.pack_cache
                )
            )
            if self.pack_cache is not None:
                prof.count("pack_hits", self.pack_cache.hits - hits0)
                prof.count("pack_misses", self.pack_cache.misses - miss0)

        # Per-pair geometry, indexed by *original* pair position.
        ns_all = np.array([len(a) for a, _ in pairs], dtype=np.int64)
        ms_all = np.array([len(b) for _, b in pairs], dtype=np.int64)

        # Work counters stay per original pair so retirement can hand each
        # result the same accounting the scalar aligner would have kept.
        score_iters = np.zeros(num_pairs, dtype=np.int64)
        wf_steps = np.zeros(num_pairs, dtype=np.int64)
        cells_comp = np.zeros(num_pairs, dtype=np.int64)
        cells_alloc = np.zeros(num_pairs, dtype=np.int64)
        ext_cmp = np.zeros(num_pairs, dtype=np.int64)
        ext_match = np.zeros(num_pairs, dtype=np.int64)
        peak_width = np.zeros(num_pairs, dtype=np.int64)
        band_pruned = np.zeros(num_pairs, dtype=np.int64)
        live_cells = np.zeros(num_pairs, dtype=np.int64)
        peak_cells = np.zeros(num_pairs, dtype=np.int64)

        hist_m: list[dict[int, Wavefront]] = [{} for _ in range(num_pairs)]
        hist_i: list[dict[int, Wavefront]] = [{} for _ in range(num_pairs)]
        hist_d: list[dict[int, Wavefront]] = [{} for _ in range(num_pairs)]

        def work_for(orig: int) -> WfaWorkCounters:
            return WfaWorkCounters(
                score_iterations=int(score_iters[orig]),
                wavefront_steps=int(wf_steps[orig]),
                cells_computed=int(cells_comp[orig]),
                extend_comparisons=int(ext_cmp[orig]),
                extend_matches=int(ext_match[orig]),
                peak_wavefront_width=int(peak_width[orig]),
                cells_allocated=int(cells_alloc[orig]),
                band_pruned_cells=int(band_pruned[orig]),
                peak_wavefront_bytes=int(BYTES_PER_CELL * peak_cells[orig]),
            )

        # Live state, row-aligned to ``act`` (original indices still active).
        act = np.arange(num_pairs, dtype=np.int64)
        ns, ms = ns_all, ms_all
        kfin = ms - ns
        hard_caps = 2 * p.gap_open + p.gap_extend * (ns + ms) + p.mismatch

        x, oe, e = p.mismatch, p.gap_open_total, p.gap_extend
        step = p.score_granularity
        span = p.max_window_span()
        records: dict[int, _BatchRecord] = {}

        def store_history(
            s: int,
            lo: np.ndarray,
            hi: np.ndarray,
            out_m: np.ndarray,
            out_i: np.ndarray | None,
            out_d: np.ndarray | None,
            live_m: np.ndarray,
            live_i: np.ndarray,
            live_d: np.ndarray,
        ) -> None:
            if not self.keep_backtrace:
                return
            rows = np.flatnonzero(live_m)
            for r, lo_r, hi_r, orig in zip(
                rows.tolist(), lo[rows].tolist(), hi[rows].tolist(), act[rows].tolist()
            ):
                w = hi_r - lo_r + 1
                # Copy the row slices: a view would pin the whole padded
                # batch array alive for the pair's entire history, which
                # is exactly the memory blow-up banding exists to avoid.
                hist_m[orig][s] = Wavefront(lo_r, hi_r, out_m[r, :w].copy())
                if out_i is not None and live_i[r]:
                    hist_i[orig][s] = Wavefront(lo_r, hi_r, out_i[r, :w].copy())
                if out_d is not None and live_d[r]:
                    hist_d[orig][s] = Wavefront(lo_r, hi_r, out_d[r, :w].copy())

        def retire(done: np.ndarray, s: int, *, failed: bool = False) -> bool:
            """Finish ``done`` rows at score ``s``; True when batch is empty.

            ``failed`` rows (band loss / hard cap under banding) get a
            ``reached_end=False`` result instead of a backtrace.
            """
            nonlocal act, ns, ms, kfin, hard_caps, last_live
            if failed:
                for r in np.flatnonzero(done):
                    orig = int(act[r])
                    results[orig] = WfaResult(
                        score=-1, cigar=None, work=work_for(orig),
                        reached_end=False,
                    )
                    hist_m[orig] = hist_i[orig] = hist_d[orig] = {}
            else:
                with prof.stage("backtrace"):
                    for r in np.flatnonzero(done):
                        orig = int(act[r])
                        a, b = pairs[orig]
                        cigar = (
                            backtrace_wavefronts(
                                a, b, hist_m[orig], hist_i[orig], hist_d[orig], s, p
                            )
                            if self.keep_backtrace
                            else None
                        )
                        results[orig] = WfaResult(
                            score=s, cigar=cigar, work=work_for(orig)
                        )
                        # History is per pair; free it as soon as it is spent.
                        hist_m[orig] = hist_i[orig] = hist_d[orig] = {}
            with prof.stage("retire"):
                keep = ~done
                act = act[keep]
                ns, ms, kfin = ns[keep], ms[keep], kfin[keep]
                hard_caps = hard_caps[keep]
                last_live = last_live[keep]
                for rec in records.values():
                    rec.compact(keep)
            return act.size == 0

        # -- s = 0: one M cell per pair at k = 0, offset 0, then extend. ----
        lo0 = np.zeros(act.size, dtype=np.int64)
        hi0 = np.zeros(act.size, dtype=np.int64)
        with prof.stage("extend"):
            ext0 = extend_kernel_batched(
                a_words,
                b_words,
                act,
                ns,
                ms,
                np.zeros((act.size, 1), dtype=np.int64),
                lo0,
            )
        ext_cmp[act] += ext0.comparisons
        ext_match[act] += ext0.matches
        cells_alloc[act] += 1
        peak_width[act] = 1
        live_cells[act] += 1
        peak_cells[act] = np.maximum(peak_cells[act], live_cells[act])
        last_live = np.zeros(act.size, dtype=np.int64)
        absent = np.full(act.size, BAND_ABSENT, dtype=np.int64)
        null_col = np.full((act.size, 1), NULL_OFFSET, dtype=np.int64)
        records[0] = _BatchRecord(
            lo_m=lo0,
            hi_m=hi0,
            lo_i=absent,
            hi_i=-absent,
            lo_d=absent.copy(),
            hi_d=-absent.copy(),
            m=ext0.offsets,
            i=null_col,
            d=null_col.copy(),
            row_cells=np.ones(act.size, dtype=np.int64),
        )
        alive = np.ones(act.size, dtype=bool)
        store_history(0, lo0, hi0, ext0.offsets, None, None, alive, alive, alive)
        done = (kfin == 0) & (ext0.offsets[:, 0] == ms)
        if done.any() and retire(done, 0):
            return _finalize(results)

        # -- the lockstep score loop ----------------------------------------
        s = 0
        while True:
            s += step
            if self.max_score is not None and s > self.max_score:
                merged = WfaWorkCounters()
                for orig in act:
                    merged.merge(work_for(int(orig)))
                raise ScoreLimitExceeded(s, self.max_score, merged)
            over = s > hard_caps
            if over.any():
                if self.band_width is None:
                    raise AssertionError(
                        "batched WFA failed to terminate below the hard score "
                        f"cap {int(hard_caps.max())}"
                    )
                if retire(over, s, failed=True):
                    return _finalize(results)
            score_iters[act] += 1

            # Once a pair has had no wavefront for a full recurrence window
            # it can never produce one again: the band lost the optimal
            # path and every survivor ran off the matrix.
            if self.band_width is not None:
                band_dead = (s - last_live) > span
                if band_dead.any() and retire(band_dead, s, failed=True):
                    return _finalize(results)

            # Drop batch records behind the recurrence window.  Safe even
            # with backtrace on: CIGAR recovery reads the per-pair history
            # snapshots, never the batch records, so the batch only ever
            # holds ``span`` scores.  Without backtrace the history does
            # not exist either, so eviction is when stored cells leave the
            # ``peak_wavefront_bytes`` memory model.
            horizon = s - span
            for key in [key for key in records if key < horizon]:
                rec = records.pop(key)
                if not self.keep_backtrace:
                    live_cells[act] -= rec.row_cells

            rec_x = records.get(s - x)
            rec_oe = records.get(s - oe)
            rec_e = records.get(s - e)
            if rec_x is None and rec_oe is None and rec_e is None:
                continue

            with prof.stage("compute"):
                los = [
                    lo
                    for lo in (
                        rec_x.lo_m if rec_x is not None else None,
                        rec_oe.lo_m if rec_oe is not None else None,
                        rec_e.lo_i if rec_e is not None else None,
                        rec_e.lo_d if rec_e is not None else None,
                    )
                    if lo is not None
                ]
                his = [
                    hi
                    for hi in (
                        rec_x.hi_m if rec_x is not None else None,
                        rec_oe.hi_m if rec_oe is not None else None,
                        rec_e.hi_i if rec_e is not None else None,
                        rec_e.hi_d if rec_e is not None else None,
                    )
                    if hi is not None
                ]
                src_lo = np.minimum.reduce(los)
                src_hi = np.maximum.reduce(his)
                lo_new = np.maximum(src_lo - 1, -ns)
                hi_new = np.minimum(src_hi + 1, ms)
                exists = (src_lo < BAND_ABSENT) & (lo_new <= hi_new)
                if not exists.any():
                    continue
                lo_new = np.where(exists, lo_new, BAND_ABSENT)
                hi_new = np.where(exists, hi_new, -BAND_ABSENT)
                width = int((hi_new - lo_new).max()) + 1

                def win(
                    rec: _BatchRecord | None, which: str, shift: int, cols: int
                ) -> np.ndarray:
                    if rec is None:
                        return np.full((act.size, cols), NULL_OFFSET, dtype=np.int64)
                    data = getattr(rec, which)
                    lo_src = getattr(rec, f"lo_{which}")
                    hi_src = getattr(rec, f"hi_{which}")
                    return gather_window_batched(
                        data, lo_src, hi_src, lo_new, cols, shift
                    )

                ks = lo_new[:, None] + np.arange(width, dtype=np.int64)[None, :]
                valid = (
                    np.arange(width, dtype=np.int64)[None, :]
                    <= (hi_new - lo_new)[:, None]
                )
                # One gather serves both gap-open sources: the k-1 and
                # k+1 windows of M[s-o-e] are two slices of it.
                m_oe = win(rec_oe, "m", -1, width + 2)
                out = compute_kernel_batched(
                    win(rec_x, "m", 0, width),
                    m_oe[:, :width],
                    win(rec_e, "i", -1, width),
                    m_oe[:, 2:],
                    win(rec_e, "d", +1, width),
                    ks,
                    ns[:, None],
                    ms[:, None],
                    valid,
                )
            w_rows = np.where(exists, hi_new - lo_new + 1, 0)
            cells_comp[act] += 3 * w_rows
            cells_alloc[act] += 3 * w_rows
            if not out.live_m.any():
                continue

            with prof.stage("extend"):
                ext = extend_kernel_batched(
                    a_words, b_words, act, ns, ms, out.m, lo_new
                )
            ext_cmp[act] += ext.comparisons
            ext_match[act] += ext.matches
            wf_steps[act] += out.live_m
            peak_width[act] = np.maximum(
                peak_width[act], np.where(out.live_m, w_rows, 0)
            )

            # Convergence: M reached offset m on the final diagonal.  The
            # check runs on the *full* wavefront, before any pruning, so
            # retiring pairs always feed an untrimmed step to backtrace.
            cols = kfin - lo_new
            in_band = (cols >= 0) & (cols <= hi_new - lo_new)
            vals = ext.offsets[
                np.arange(act.size), np.minimum(np.maximum(cols, 0), width - 1)
            ]
            done = out.live_m & in_band & (vals == ms)

            m_f, i_f, d_f = ext.offsets, out.i, out.d
            lo_f, hi_f = lo_new, hi_new
            live_m_f, live_i_f, live_d_f = out.live_m, out.live_i, out.live_d
            if self.band_width is not None:
                with prof.stage("band"):
                    pr = band_prune_batched(
                        ext.offsets, out.i, out.d, lo_new, hi_new,
                        self.band_width, done,
                    )
                    m_f, i_f, d_f = pr.m, pr.i, pr.d
                    lo_f, hi_f = pr.lo, pr.hi
                    band_pruned[act] += pr.pruned
                    # A matrix can go empty once trimmed; liveness (and so
                    # storage) is re-derived from the pruned arrays.
                    live_m_f = (m_f >= 0).any(axis=1)
                    live_i_f = (i_f >= 0).any(axis=1)
                    live_d_f = (d_f >= 0).any(axis=1)

            w_f = np.where(live_m_f, hi_f - lo_f + 1, 0)
            records[s] = _BatchRecord(
                lo_m=np.where(live_m_f, lo_f, BAND_ABSENT),
                hi_m=np.where(live_m_f, hi_f, -BAND_ABSENT),
                lo_i=np.where(live_i_f, lo_f, BAND_ABSENT),
                hi_i=np.where(live_i_f, hi_f, -BAND_ABSENT),
                lo_d=np.where(live_d_f, lo_f, BAND_ABSENT),
                hi_d=np.where(live_d_f, hi_f, -BAND_ABSENT),
                m=m_f,
                i=i_f,
                d=d_f,
                row_cells=w_f
                * (
                    live_m_f.astype(np.int64)
                    + live_i_f.astype(np.int64)
                    + live_d_f.astype(np.int64)
                ),
            )
            store_history(
                s, lo_f, hi_f, m_f, i_f, d_f,
                live_m_f, live_i_f, live_d_f,
            )
            live_cells[act] += records[s].row_cells
            peak_cells[act] = np.maximum(peak_cells[act], live_cells[act])
            last_live = np.where(live_m_f, s, last_live)

            if done.any() and retire(done, s):
                return _finalize(results)


def _finalize(results: list[WfaResult | None]) -> list[WfaResult]:
    assert all(r is not None for r in results), "batched aligner lost a pair"
    return results  # type: ignore[return-value]


def wfa_align_batched(
    pairs: Sequence[tuple[str, str]],
    penalties: AffinePenalties = DEFAULT_PENALTIES,
) -> list[WfaResult]:
    """One-shot batched WFA alignment (with backtrace) of many pairs."""
    return BatchedWfaAligner(penalties).align_batch(pairs)
