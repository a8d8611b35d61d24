"""The Aligner module (§4.3): wavefront engine with hardware semantics.

An Aligner runs the WFA loop of §2.3 under the hardware's constraints:

* wavefront vectors are fixed-length (``2 k_max + 1`` slots); diagonals
  outside ``±k_max`` do not exist, and an alignment whose score passes
  Eq. 6's ``Score_max`` terminates unsuccessfully (§4.3.1),
* only the *valid* cells of each frame column are processed — the
  theoretical band of the score (``repro.align.ScoreLattice``) clamped
  to the vector length and to the DP-matrix extent,
* wavefront steps visit exactly the reachable-score lattice
  (0, 4, 8, 10, 12, ... for the default penalties),
* per step, the ``n_ps`` parallel sections process groups of consecutive
  cells in lockstep: Compute (Eq. 3, with 5-bit origin emission when
  backtrace is on) then Extend (16-base blocks),
* origin codes are packed into 40-byte blocks in band order (§4.3.3),
  appended straight to one buffer per run — the payload the Collector
  BT later frames into memory transactions,
* M, I and D live in fixed-slot frame columns with the geometry of
  :func:`repro.wfasic.rams.wavefront_geometry` (the same columns the
  :class:`~repro.wfasic.aligner_ram.RamAccurateAligner` routes through
  its banked RAMs): each score rotates onto the slot ``score //
  granularity`` and tags it, so every Eq. 3 source window is a slice of
  a column and Compute and Extend write the frame column in place.

Cycle accounting composes :class:`ComputeStage` and :class:`ExtendStage`
latencies with a per-alignment setup charge (reading the length words
from the Input_Seq RAMs, §4.3.2) and a result-drain charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..align.kernels import sequence_words
from ..align.lattice import ScoreLattice
from ..align.wfa import NULL_OFFSET
from .compute import ComputeStage, ComputeTimings
from .config import WfasicConfig
from .extend import ExtendStage, ExtendTimings
from .extractor import ExtractedJob
from .packets import pack_origin_blocks
from .rams import wavefront_geometry

__all__ = ["AlignerTimings", "AlignerStats", "AlignerRun", "Aligner"]

_SENTINEL_A = 0xFF
_SENTINEL_B = 0xFE


@dataclass(frozen=True)
class AlignerTimings:
    """All cycle constants of one Aligner, for calibration and ablation."""

    compute: ComputeTimings = field(default_factory=ComputeTimings)
    extend: ExtendTimings = field(default_factory=ExtendTimings)
    #: Per-alignment setup: read ID/length words, reset wavefront columns.
    setup_cycles: int = 10
    #: Per-alignment drain: hand the score record to the Collector.
    drain_cycles: int = 4


@dataclass
class AlignerStats:
    """Work performed by one alignment (feeds benches and the CPU model)."""

    wavefront_steps: int = 0
    cells_processed: int = 0
    extend_blocks: int = 0
    extend_matches: int = 0
    peak_band_width: int = 0
    compute_cycles: int = 0
    extend_cycles: int = 0


@dataclass(frozen=True)
class AlignerRun:
    """Result of one alignment on one Aligner.

    ``score`` is only meaningful when ``success`` is set; ``k_reached``
    is the final diagonal (``len(b) - len(a)``) on success, or the last
    attempted diagonal bound otherwise.  ``bt_payload`` holds the run's
    origin blocks back to back in emission order when backtrace is
    enabled, ``config.bt_block_bytes`` (40 at 64 PS) each; the Aligner
    fills one ``bytearray``.
    """

    alignment_id: int
    success: bool
    score: int
    k_reached: int
    cycles: int
    stats: AlignerStats
    bt_payload: bytes | bytearray | None


class _FrameColumns:
    """One window's circular frame columns (§4.3.1), tagged with scores.

    ``cols[slot, k + reach + 1]`` holds diagonal ``k`` of the score whose
    tag the slot carries.  A pair's bands never leave
    ``max(-k_max, -n)..min(k_max, m)``, so a run's columns cover only
    ``reach = min(k_max, max(n, m))`` diagonals each side of the
    ``2 k_max + 1`` slots.  The first and last rows are never written,
    so they read NULL like the duplicated edge banks of Fig. 6 and the
    ``k ± 1`` windows of a band reaching ``±reach`` stay slices.  A
    score whose slot carries another tag (skipped, or rotated out)
    reads as an all-NULL column.
    """

    def __init__(self, count: int, granularity: int, null: np.ndarray) -> None:
        self.cols = np.full((count, len(null)), NULL_OFFSET, dtype=np.int64)
        self._null = null
        self._granularity = granularity
        self._tags: list[int | None] = [None] * count
        #: Row range ``[start, stop)`` each slot last wrote.
        self._spans = [(0, 0)] * count

    def read(self, score: int) -> np.ndarray:
        """The column of ``score``, or an all-NULL column."""
        slot = (score // self._granularity) % len(self._tags)
        return self.cols[slot] if self._tags[slot] == score else self._null

    def rotate(self, score: int, start: int, stop: int) -> np.ndarray:
        """Tag the slot of ``score`` and return its column, NULL outside
        rows ``start..stop-1`` (the caller writes those)."""
        slot = (score // self._granularity) % len(self._tags)
        col = self.cols[slot]
        old_start, old_stop = self._spans[slot]
        col[old_start : min(start, old_stop)] = NULL_OFFSET
        col[max(stop, old_start) : old_stop] = NULL_OFFSET
        self._tags[slot] = score
        self._spans[slot] = (start, stop)
        return col


class Aligner:
    """One Aligner module: ``n_ps`` parallel sections plus their RAMs."""

    def __init__(
        self, config: WfasicConfig, timings: AlignerTimings | None = None
    ) -> None:
        self.config = config
        self.timings = timings or AlignerTimings()
        self._lattice = ScoreLattice.of(config.penalties)

    # -- public API ------------------------------------------------------------

    def run(self, job: ExtractedJob) -> AlignerRun:
        """Align one extracted pair under the hardware constraints."""
        stats = AlignerStats()
        bt = bytearray() if self.config.backtrace else None

        if not job.supported:
            # §4.2: the Aligner skips the pair; Success reports the failure.
            return AlignerRun(
                alignment_id=job.alignment_id,
                success=False,
                score=0,
                k_reached=0,
                cycles=self.timings.setup_cycles,
                stats=stats,
                bt_payload=bt,
            )

        a, b = job.seq_a, job.seq_b
        n, m = len(a), len(b)
        k_final = m - n
        cfg = self.config
        p = cfg.penalties
        n_ps = cfg.parallel_sections
        cycles = self.timings.setup_cycles

        if abs(k_final) > cfg.k_max:
            # The terminating diagonal does not exist in the vectors.
            return AlignerRun(
                alignment_id=job.alignment_id,
                success=False,
                score=0,
                k_reached=0,
                cycles=cycles,
                stats=stats,
                bt_payload=bt,
            )

        aw = sequence_words(a, sentinel=_SENTINEL_A)
        bw = sequence_words(b, sentinel=_SENTINEL_B)

        compute = ComputeStage(
            n_ps, emit_origins=cfg.backtrace, timings=self.timings.compute
        )
        extend = ExtendStage(n_ps, timings=self.timings.extend)

        reach = min(cfg.k_max, max(n, m))
        geo = wavefront_geometry(cfg)
        # Read-only: the column of every score no slot holds.
        null = np.full(2 * reach + 3, NULL_OFFSET, dtype=np.int64)
        M = _FrameColumns(geo.m_columns, p.score_granularity, null)
        I = _FrameColumns(geo.id_columns, p.score_granularity, null)
        D = _FrameColumns(geo.id_columns, p.score_granularity, null)
        # Row of diagonal k in a frame column (row 0 is the NULL edge).
        base = reach + 1

        # Score 0: the initial M cell, extended in place.
        m0 = M.rotate(0, base, base + 1)[base : base + 1]
        m0[0] = 0
        ext, ext_cycles = extend.run(aw, bw, n, m, m0, 0, out=m0)
        cycles += ext_cycles + self.timings.compute.step_overhead
        stats.extend_cycles += ext_cycles
        stats.wavefront_steps += 1
        stats.peak_band_width = 1
        stats.extend_blocks += int(ext.blocks.sum())
        stats.extend_matches += ext.matches
        if k_final == 0 and m0[0] == m:
            cycles += self.timings.drain_cycles
            return AlignerRun(
                alignment_id=job.alignment_id,
                success=True,
                score=0,
                k_reached=k_final,
                cycles=cycles,
                stats=stats,
                bt_payload=bt,
            )

        x, oe, e = p.mismatch, p.gap_open_total, p.gap_extend
        step = p.score_granularity
        diagonals = np.arange(-base, base + 1, dtype=np.int64)

        s = 0
        while True:
            s += step
            if s > cfg.max_score:
                # Eq. 6 exceeded: terminate with Success cleared.
                cycles += self.timings.drain_cycles
                return AlignerRun(
                    alignment_id=job.alignment_id,
                    success=False,
                    score=0,
                    k_reached=k_final,
                    cycles=cycles,
                    stats=stats,
                    bt_payload=bt,
                )

            band = self._lattice.m_band(s)
            if band is None:
                continue
            band = band.clamped(max(-cfg.k_max, -n), min(cfg.k_max, m))
            if band is None:
                # Valid cells exist in theory but not in this matrix /
                # vector geometry; the step is skipped (and, with
                # backtrace on, still emits its zero-width placeholder so
                # the CPU's deterministic parse stays aligned — a zero
                # width step contributes no blocks).
                continue
            lo, hi = band.lo, band.hi
            width = hi - lo + 1
            start, stop = lo + base, hi + base + 1

            # Eq. 3's sources, read before the frame column rotates in:
            # the s-o-e M column once for both k-1 and k+1 (Fig. 6).
            m_x = M.read(s - x)
            m_oe = M.read(s - oe)
            i_e = I.read(s - e)
            d_e = D.read(s - e)
            m_new = M.rotate(s, start, stop)[start:stop]
            out, comp_cycles = compute.run(
                m_x[start:stop],
                m_oe[start - 1 : stop - 1],
                i_e[start - 1 : stop - 1],
                m_oe[start + 1 : stop + 1],
                d_e[start + 1 : stop + 1],
                diagonals[start:stop],
                n,
                m,
                out=(
                    m_new,
                    I.rotate(s, start, stop)[start:stop],
                    D.rotate(s, start, stop)[start:stop],
                ),
            )
            cycles += comp_cycles
            stats.compute_cycles += comp_cycles
            stats.wavefront_steps += 1
            stats.cells_processed += 3 * width
            stats.peak_band_width = max(stats.peak_band_width, width)

            if bt is not None:
                bt.extend(pack_origin_blocks(out.origins, n_ps))

            ext, ext_cycles = extend.run(aw, bw, n, m, m_new, lo, out=m_new)
            cycles += ext_cycles
            stats.extend_cycles += ext_cycles
            stats.extend_blocks += int(ext.blocks.sum())
            stats.extend_matches += ext.matches

            if lo <= k_final <= hi and m_new[k_final - lo] == m:
                cycles += self.timings.drain_cycles
                return AlignerRun(
                    alignment_id=job.alignment_id,
                    success=True,
                    score=s,
                    k_reached=k_final,
                    cycles=cycles,
                    stats=stats,
                    bt_payload=bt,
                )
