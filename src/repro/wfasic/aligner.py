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
* origin codes are packed into 40-byte blocks in band order (§4.3.3) —
  the payload the Collector BT later frames into memory transactions.

Cycle accounting composes :class:`ComputeStage` and :class:`ExtendStage`
latencies with a per-alignment setup charge (reading the length words
from the Input_Seq RAMs, §4.3.2) and a result-drain charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..align.kernels import sequence_words
from ..align.lattice import ScoreLattice
from ..align.wfa import NULL_OFFSET, Wavefront
from .compute import ComputeStage, ComputeTimings
from .config import WfasicConfig
from .extend import ExtendStage, ExtendTimings
from .extractor import ExtractedJob
from .packets import pack_origin_codes

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
    attempted diagonal bound otherwise.  ``bt_blocks`` holds the 40-byte
    origin blocks in emission order when backtrace is enabled.
    """

    alignment_id: int
    success: bool
    score: int
    k_reached: int
    cycles: int
    stats: AlignerStats
    bt_blocks: list[bytes] | None


class Aligner:
    """One Aligner module: ``n_ps`` parallel sections plus their RAMs."""

    def __init__(
        self, config: WfasicConfig, timings: AlignerTimings | None = None
    ) -> None:
        self.config = config
        self.timings = timings or AlignerTimings()
        self._lattice = ScoreLattice(config.penalties)

    # -- public API ------------------------------------------------------------

    def run(self, job: ExtractedJob) -> AlignerRun:
        """Align one extracted pair under the hardware constraints."""
        stats = AlignerStats()
        bt: list[bytes] | None = [] if self.config.backtrace else None

        if not job.supported:
            # §4.2: the Aligner skips the pair; Success reports the failure.
            return AlignerRun(
                alignment_id=job.alignment_id,
                success=False,
                score=0,
                k_reached=0,
                cycles=self.timings.setup_cycles,
                stats=stats,
                bt_blocks=bt,
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
                bt_blocks=bt,
            )

        aw = sequence_words(a, sentinel=_SENTINEL_A)
        bw = sequence_words(b, sentinel=_SENTINEL_B)

        compute = ComputeStage(
            n_ps, emit_origins=cfg.backtrace, timings=self.timings.compute
        )
        extend = ExtendStage(n_ps, timings=self.timings.extend)

        M: dict[int, Wavefront] = {}
        I: dict[int, Wavefront] = {}
        D: dict[int, Wavefront] = {}

        # Score 0: the initial M cell, extended.
        wf0 = Wavefront(0, 0, np.zeros(1, dtype=np.int64))
        ext, ext_cycles = extend.run(aw, bw, n, m, wf0.offsets, 0)
        wf0.offsets[:] = ext.offsets
        M[0] = wf0
        cycles += ext_cycles + self.timings.compute.step_overhead
        stats.extend_cycles += ext_cycles
        stats.wavefront_steps += 1
        stats.peak_band_width = 1
        stats.extend_blocks += int(ext.blocks.sum())
        stats.extend_matches += ext.matches
        if wf0.get(k_final) == m:
            cycles += self.timings.drain_cycles
            return AlignerRun(
                alignment_id=job.alignment_id,
                success=True,
                score=0,
                k_reached=k_final,
                cycles=cycles,
                stats=stats,
                bt_blocks=bt,
            )

        x, oe, e = p.mismatch, p.gap_open_total, p.gap_extend
        step = p.score_granularity
        window = p.max_window_span()

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
                    bt_blocks=bt,
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
            ks = np.arange(lo, hi + 1, dtype=np.int64)

            def win(store: dict[int, Wavefront], score: int, shift: int) -> np.ndarray:
                wf = store.get(score)
                if wf is None:
                    return np.full(width, NULL_OFFSET, dtype=np.int64)
                return wf.window(lo + shift, hi + shift)

            out, comp_cycles = compute.run(
                win(M, s - x, 0),
                win(M, s - oe, -1),
                win(I, s - e, -1),
                win(M, s - oe, +1),
                win(D, s - e, +1),
                ks,
                n,
                m,
            )
            cycles += comp_cycles
            stats.compute_cycles += comp_cycles
            stats.wavefront_steps += 1
            stats.cells_processed += 3 * width
            stats.peak_band_width = max(stats.peak_band_width, width)

            if bt is not None:
                bt.extend(pack_origin_codes(out.origins, n_ps))

            ext, ext_cycles = extend.run(aw, bw, n, m, out.m, lo)
            cycles += ext_cycles
            stats.extend_cycles += ext_cycles
            stats.extend_blocks += int(ext.blocks.sum())
            stats.extend_matches += ext.matches

            M[s] = Wavefront(lo, hi, ext.offsets)
            if (out.i >= 0).any():
                I[s] = Wavefront(lo, hi, out.i)
            if (out.d >= 0).any():
                D[s] = Wavefront(lo, hi, out.d)

            if M[s].get(k_final) == m:
                cycles += self.timings.drain_cycles
                return AlignerRun(
                    alignment_id=job.alignment_id,
                    success=True,
                    score=s,
                    k_reached=k_final,
                    cycles=cycles,
                    stats=stats,
                    bt_blocks=bt,
                )

            # The hardware keeps only the recurrence window (circular
            # frame-column rotation, §4.3.1); mirror that here.
            horizon = s - window
            for store in (M, I, D):
                for key in [key for key in store if key < horizon]:
                    del store[key]
