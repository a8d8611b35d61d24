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

import time
from typing import Sequence

import numpy as np

from .kernels import (
    BAND_ABSENT,
    band_prune_batched,
    batch_words,
    compute_kernel_batched,
    extend_kernel_batched,
    window_columns,
)
from .packing import pack_batch
from .penalties import AffinePenalties, DEFAULT_PENALTIES
from .profile import StageProfiler
from .wfa import (
    BYTES_PER_CELL,
    NULL_OFFSET,
    Wavefront,
    WfaResult,
    WfaWorkCounters,
    backtrace_wavefronts,
)

__all__ = ["BatchedWfaAligner", "wfa_align_batched"]

_SENTINEL_A = 0xFF
_SENTINEL_B = 0xFE


class _LiveRows:
    """Per-pair state of the unfinished pairs, row-aligned with them.

    One ``(16, pairs)`` int64 matrix holds every field, so retiring pairs
    compacts all of it at once; the attributes are its row views.
    Counters accumulate here in live-row order and reach the original
    pair only once, when it retires (:meth:`work`).
    """

    state: np.ndarray
    #: Original pair position, which is also the pair's word-matrix row.
    act: np.ndarray
    ns: np.ndarray
    ms: np.ndarray
    #: ``m - n``, the diagonal of the end cell.
    kfin: np.ndarray
    #: Score past which an exact pair cannot still be running.
    caps: np.ndarray
    #: Last score with an M wavefront (banded runs only).
    last_live: np.ndarray
    wf_steps: np.ndarray
    cells: np.ndarray
    ext_cmp: np.ndarray
    ext_match: np.ndarray
    peak_width: np.ndarray
    pruned: np.ndarray
    live_cells: np.ndarray
    peak_cells: np.ndarray
    #: ``[-n, -m]``: the lower bound of a ``[lo, -hi]`` band pair.
    bounds: np.ndarray
    #: ``min(caps)``, so the common case checks one int per score.
    cap: int

    def __init__(self, ns: np.ndarray, ms: np.ndarray, p: AffinePenalties) -> None:
        state = np.zeros((16, len(ns)), dtype=np.int64)
        state[0] = np.arange(len(ns))
        state[1], state[2], state[3], state[4] = -ns, -ms, ns, ms
        state[5] = ms - ns
        state[6] = 2 * p.gap_open + p.gap_extend * (ns + ms) + p.mismatch
        self._bind(state)

    def _bind(self, state: np.ndarray) -> None:
        self.state = state
        self.bounds = state[1:3]
        (
            self.act, _, _, self.ns, self.ms, self.kfin, self.caps,
            self.last_live, self.wf_steps, self.cells, self.ext_cmp,
            self.ext_match, self.peak_width, self.pruned, self.live_cells,
            self.peak_cells,
        ) = state
        self.cap = int(self.caps.min())

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired pairs' rows (``keep`` is a boolean row mask)."""
        self._bind(self.state[:, keep])

    def work(self, rows: np.ndarray, iterations: int) -> list[WfaWorkCounters]:
        """The work counters of live ``rows`` after ``iterations`` scores."""
        fields = (
            self.wf_steps, self.cells, self.ext_cmp, self.ext_match,
            self.peak_width, self.pruned, self.peak_cells,
        )
        return [
            WfaWorkCounters(
                score_iterations=iterations,
                wavefront_steps=steps,
                cells_computed=cells,
                extend_comparisons=compares,
                extend_matches=matches,
                peak_wavefront_width=width,
                # The score-0 cell is allocated but never computed.
                cells_allocated=cells + 1,
                band_pruned_cells=pruned,
                peak_wavefront_bytes=BYTES_PER_CELL * peak,
            )
            for steps, cells, compares, matches, width, pruned, peak in zip(
                *(row[rows].tolist() for row in fields)
            )
        ]


class _BatchRecord:
    """The M/I/D wavefronts of one score for every live pair.

    ``band_m`` and ``band_id`` are ``(2, pairs)`` pairs ``[lo, -hi]`` of
    the M band and of the I-or-D band, :data:`BAND_ABSENT` for pairs
    without such a wavefront: the next score's band is their elementwise
    minimum.

    ``mid`` stacks M, I and D as ``(3, pairs, width + 1)``.  Row ``p``
    covers diagonals from ``band_m[0, p]``; cells past the pair's band,
    whole rows of a matrix the pair has no wavefront in (all of them
    when M has none), and the last (pad) column are NULL_OFFSET: the
    layout of :func:`repro.align.kernels.window_columns`, so one index
    per window serves all three matrices (:meth:`window`).

    ``row_cells`` counts the cells stored per pair (band width x live
    matrices), the unit of the ``peak_wavefront_bytes`` model.
    """

    __slots__ = (
        "mid", "meta", "width", "row_base", "band_m", "band_id",
        "row_cells", "m_flat", "i_flat", "d_flat",
    )

    def __init__(self, mid: np.ndarray, meta: np.ndarray) -> None:
        self._bind(mid, meta)

    def _bind(self, mid: np.ndarray, meta: np.ndarray) -> None:
        self.mid, self.meta = mid, meta
        rows, cols = mid.shape[1:]
        self.width = cols - 1
        self.row_base = np.arange(0, rows * cols, cols, dtype=np.int64)[:, None]
        self.band_m = meta[0:2]
        self.band_id = meta[2:4]
        self.row_cells = meta[4]
        self.m_flat, self.i_flat, self.d_flat = mid.reshape(3, -1)

    @classmethod
    def build(
        cls, mid: np.ndarray, live: np.ndarray, band: np.ndarray, width: np.ndarray
    ) -> "_BatchRecord":
        """A record of ``mid`` with per-matrix ``live`` rows, ``band``
        (``[lo, -hi]`` per row) and band ``width`` per row."""
        meta = np.empty((5, mid.shape[1]), dtype=np.int64)
        meta[0:2] = band
        meta[2:4] = band
        if np.count_nonzero(live) < live.size:
            meta[0:2, ~live[0]] = BAND_ABSENT
            meta[2:4, ~(live[1] | live[2])] = BAND_ABSENT
        # I and D cells only exist where M does, so a row with no M
        # wavefront stores nothing.
        np.multiply(width, np.add.reduce(live, axis=0), out=meta[4])
        return cls(mid, meta)

    def window(self, lo_new: np.ndarray, cols: int, shift: int) -> np.ndarray:
        """Flat index of each pair's diagonals ``lo_new + shift`` onward.

        ``m_flat[idx]`` (or ``i_flat``/``d_flat``) is the ``(pairs,
        cols)`` window, NULL_OFFSET outside the pair's band.
        """
        # A pair without M has a NULL row: its absent start clamps every
        # column onto the pad, and any column would read NULL anyway.
        idx = window_columns(self.band_m[0], self.width, lo_new, cols, shift)
        idx += self.row_base
        return idx

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired pairs' rows (``keep`` is a boolean row mask)."""
        self._bind(self.mid[:, keep], self.meta[:, keep])


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
        profiler: StageProfiler | None = None,
        band_width: int | None = None,
    ) -> None:
        if band_width is not None and band_width < 1:
            raise ValueError(f"band_width must be >= 1, got {band_width}")
        self.penalties = penalties
        self.keep_backtrace = keep_backtrace
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
        clock = time.perf_counter
        keep_backtrace = self.keep_backtrace
        band_width = self.band_width
        results: list[WfaResult | None] = [None] * num_pairs

        t0 = clock()
        # Word matrices stay indexed by original pair position (the
        # extend kernel maps live rows through ``act``), so retiring
        # pairs never copies them; the byte matrices are dropped here.
        a_words = batch_words(pack_batch([a for a, _ in pairs], sentinel=_SENTINEL_A))
        b_words = batch_words(pack_batch([b for _, b in pairs], sentinel=_SENTINEL_B))
        prof.add("pack", clock() - t0)

        live = _LiveRows(
            np.array([len(a) for a, _ in pairs], dtype=np.int64),
            np.array([len(b) for _, b in pairs], dtype=np.int64),
            p,
        )
        hist_m: list[dict[int, Wavefront]] = [{} for _ in range(num_pairs)]
        hist_i: list[dict[int, Wavefront]] = [{} for _ in range(num_pairs)]
        hist_d: list[dict[int, Wavefront]] = [{} for _ in range(num_pairs)]

        x, oe, e = p.mismatch, p.gap_open_total, p.gap_extend
        step = p.score_granularity
        span = p.max_window_span()
        records: dict[int, _BatchRecord] = {}

        def store_history(s: int, rec: _BatchRecord, live_m: np.ndarray) -> None:
            # Every live pair keeps its three rows; an I or D row without a
            # wavefront is all NULL, which backtrace reads as absent.
            rows = live_m.nonzero()[0]
            for r, orig, (lo_r, neg_hi) in zip(
                rows.tolist(), live.act[rows].tolist(), rec.band_m[:, rows].T.tolist()
            ):
                hi_r = -neg_hi
                # One copy per pair: a view would pin the whole padded
                # batch array alive for the pair's entire history, which
                # is exactly the memory blow-up banding exists to avoid.
                snap = rec.mid[:, r, : hi_r - lo_r + 1].copy()
                hist_m[orig][s] = Wavefront(lo_r, hi_r, snap[0])
                hist_i[orig][s] = Wavefront(lo_r, hi_r, snap[1])
                hist_d[orig][s] = Wavefront(lo_r, hi_r, snap[2])

        def retire(
            done: np.ndarray, s: int, iterations: int, *, failed: bool = False
        ) -> bool:
            """Finish ``done`` rows at score ``s``; True when batch is empty.

            ``failed`` rows (band loss / hard cap under banding) get a
            ``reached_end=False`` result instead of a backtrace.
            """
            t0 = clock()
            rows = done.nonzero()[0]
            works = live.work(rows, iterations)
            for orig, work in zip(live.act[rows].tolist(), works):
                if failed:
                    results[orig] = WfaResult(
                        score=-1, cigar=None, work=work, reached_end=False
                    )
                else:
                    a, b = pairs[orig]
                    cigar = (
                        backtrace_wavefronts(
                            a, b, hist_m[orig], hist_i[orig], hist_d[orig], s, p
                        )
                        if keep_backtrace
                        else None
                    )
                    results[orig] = WfaResult(score=s, cigar=cigar, work=work)
                # History is per pair; free it as soon as it is spent.
                hist_m[orig] = hist_i[orig] = hist_d[orig] = {}
            t1 = clock()
            if not failed:
                prof.add("backtrace", t1 - t0)
            empty = rows.size == live.act.size
            if not empty:
                keep = ~done
                live.compact(keep)
                for rec in records.values():
                    rec.compact(keep)
            prof.add("retire", clock() - t1)
            return empty

        # -- s = 0: one M cell per pair at k = 0, offset 0, then extend. ----
        t0 = clock()
        mid = np.full((3, num_pairs, 2), NULL_OFFSET, dtype=np.int64)
        mid[0, :, 0] = 0
        zero = np.zeros(num_pairs, dtype=np.int64)
        ext = extend_kernel_batched(
            a_words, b_words, live.act, live.ns, live.ms, mid[0], zero, out=mid[0]
        )
        prof.add("extend", clock() - t0)
        live.ext_cmp += ext.comparisons
        live.ext_match += ext.matches
        live.peak_width[:] = live.live_cells[:] = live.peak_cells[:] = 1
        live0 = np.zeros((3, num_pairs), dtype=bool)
        live0[0] = True
        records[0] = _BatchRecord.build(mid, live0, np.stack((zero, zero)), zero + 1)
        if keep_backtrace:
            store_history(0, records[0], live0[0])
        done = (live.kfin == 0) & (mid[0, :, 0] == live.ms)
        if np.count_nonzero(done) and retire(done, 0, 0):
            return _finalize(results)

        # -- the lockstep score loop ----------------------------------------
        s = 0
        iterations = 0  # scores attempted; every live pair saw all of them
        while True:
            s += step
            if s > live.cap:
                if band_width is None:
                    raise AssertionError(
                        "batched WFA failed to terminate below the hard score "
                        f"cap {int(live.caps.max())}"
                    )
                if retire(s > live.caps, s, iterations, failed=True):
                    return _finalize(results)
            iterations += 1

            # Once a pair has had no wavefront for a full recurrence window
            # it can never produce one again: the band lost the optimal
            # path and every survivor ran off the matrix.
            if band_width is not None:
                band_dead = (s - live.last_live) > span
                if np.count_nonzero(band_dead) and retire(
                    band_dead, s, iterations, failed=True
                ):
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
                if not keep_backtrace:
                    live.live_cells -= rec.row_cells

            rec_x = records.get(s - x)
            rec_oe = records.get(s - oe)
            rec_e = records.get(s - e)
            if rec_x is None and rec_oe is None and rec_e is None:
                continue

            t0 = clock()
            # The new band of each pair, as ``[lo, -hi]``: one wider than
            # the union of its source bands, clipped to ``-n..m``.  Pairs
            # without any source end up with a width below one.
            sources = [rec.band_m for rec in (rec_x, rec_oe) if rec is not None]
            if rec_e is not None:
                sources.append(rec_e.band_id)
            band = sources[0]
            for src in sources[1:]:
                band = np.minimum(band, src)
            band = np.maximum(band - 1, live.bounds)
            lo_new = band[0]
            w_rows = 1 - np.add.reduce(band)
            np.maximum(w_rows, 0, out=w_rows)
            width = int(w_rows[w_rows.argmax()])
            if width == 0:
                prof.add("compute", clock() - t0)
                continue

            # Windows of the sources, one column wider than the band: that
            # column is past every pair's band, so it computes NULL and
            # becomes the new record's pad.  One index serves both
            # gap-open sources: the k-1 and k+1 windows of M[s-o-e] are two
            # slices of it; likewise I and D of M[s-e].
            cols = width + 1
            rows = live.act.size
            if rec_x is not None:
                m_x = rec_x.m_flat[rec_x.window(lo_new, cols, 0)]
            else:
                m_x = np.full((rows, cols), NULL_OFFSET, dtype=np.int64)
            if rec_oe is not None:
                m_oe = rec_oe.m_flat[rec_oe.window(lo_new, cols + 2, -1)]
            else:
                m_oe = np.full((rows, cols + 2), NULL_OFFSET, dtype=np.int64)
            if rec_e is not None:
                idx = rec_e.window(lo_new, cols + 2, -1)
                i_e, d_e = rec_e.i_flat[idx], rec_e.d_flat[idx]
            else:
                i_e = d_e = np.full((rows, cols + 2), NULL_OFFSET, dtype=np.int64)
            ks = lo_new[:, None] + np.arange(cols, dtype=np.int64)
            out = compute_kernel_batched(
                m_x,
                m_oe[:, :cols],
                i_e[:, :cols],
                m_oe[:, 2:],
                d_e[:, 2:],
                ks,
                live.ns[:, None],
                live.ms[:, None],
            )
            live.cells += 3 * w_rows
            live_m = out.live[0]
            t1 = clock()
            prof.add("compute", t1 - t0)
            if not np.count_nonzero(live_m):
                continue

            mid = out.mid
            ext = extend_kernel_batched(
                a_words, b_words, live.act, live.ns, live.ms, mid[0], lo_new,
                out=mid[0],
            )
            prof.add("extend", clock() - t1)
            live.ext_cmp += ext.comparisons
            live.ext_match += ext.matches
            live.wf_steps += live_m
            np.maximum(live.peak_width, w_rows * live_m, out=live.peak_width)

            # Convergence: M reached offset m on the final diagonal.  The
            # check runs on the *full* wavefront, before any pruning, so
            # retiring pairs always feed an untrimmed step to backtrace.
            # Diagonals outside a pair's band read its NULL pad.
            end_col = np.minimum((live.kfin - lo_new).view(np.uint64), width)
            end_col = end_col.view(np.int64)
            end_col += np.arange(0, rows * cols, cols, dtype=np.int64)
            done = mid[0].reshape(-1)[end_col] == live.ms

            live_f, w_f = out.live, w_rows
            if band_width is not None:
                t0 = clock()
                pr = band_prune_batched(mid, lo_new, -band[1], band_width, done)
                if pr.mid is not mid:
                    mid = pr.mid
                    band = np.stack((pr.lo, -pr.hi))
                    w_f = pr.hi - pr.lo + 1
                    live.pruned += pr.pruned
                    # A matrix can go empty once trimmed; liveness (and
                    # so storage) is re-derived from the pruned arrays.
                    live_f = mid.max(axis=2) >= 0
                np.copyto(live.last_live, s, where=live_f[0])
                prof.add("band", clock() - t0)

            rec = records[s] = _BatchRecord.build(mid, live_f, band, w_f)
            if keep_backtrace:
                store_history(s, rec, live_f[0])
            live.live_cells += rec.row_cells
            np.maximum(live.peak_cells, live.live_cells, out=live.peak_cells)

            if np.count_nonzero(done) and retire(done, s, iterations):
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
