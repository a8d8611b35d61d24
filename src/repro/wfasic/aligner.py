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

A run has two halves.  :meth:`Aligner.trace` is the dataflow: each
step's band width and the longest 16-base block run of every
``g = gcd(n_ps, 16)`` consecutive cells from the band's ``lo`` (plus the
origin payload with backtrace on).  :func:`price` charges a trace the
:class:`AlignerTimings` cycles at any multiple of ``g`` sections, and
:meth:`Aligner.run` is the two together.  Backtrace-off traces are
memoised in :data:`TRACE_MEMO`, a process-wide LRU bounded in bytes, so a
design sweep traces each pair once per ``k_max``.  Backtrace-on runs
bypass it: their payload is megabytes, and a workload replaying the same
pairs would time the memo instead of the simulator.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from math import gcd
from typing import Callable

import numpy as np

from ..align.kernels import compute_kernel, extend_kernel, sequence_words
from ..align.lattice import ScoreLattice
from ..align.penalties import AffinePenalties
from ..align.wfa import NULL_OFFSET
from .config import WfasicConfig
from .extractor import ExtractedJob
from .packets import pack_origin_blocks
from .rams import wavefront_geometry

__all__ = [
    "AlignerTimings",
    "AlignerStats",
    "AlignerRun",
    "AlignerTrace",
    "Aligner",
    "TRACE_MEMO",
    "price",
]

_SENTINEL_A = 0xFF
_SENTINEL_B = 0xFE

#: The largest trace group: 16 is the smallest section count that frames
#: origin blocks (§4.3.3), so every backtrace-capable count is a multiple.
_TRACE_GROUP = 16


@dataclass(frozen=True)
class AlignerTimings:
    """All cycle constants of one Aligner, for calibration and ablation.

    Compute (§4.3.3): a group of ``n_ps`` cells costs
    ``cycles_per_group``, two sequential M-window reads plus one write;
    the I/D read and the origin concatenation overlap the M accesses, and
    Fig. 6's duplicated edge banks serve the ``k ± 1`` windows in one
    read.  ``step_overhead`` covers frame-column rotation, score tagging
    and the termination check once per wavefront step (§4.3.1).

    Extend (§4.3.2): "the comparator compares 16 bases of the sequences
    at each clock cycle, after five initial cycles".  A group of ``n_ps``
    cells extends in lockstep for ``pipeline_fill`` plus
    ``cycles_per_block`` times its longest block run, at least one: a
    group of boundary cells still computes its start addresses.
    """

    cycles_per_group: int = 3
    step_overhead: int = 2
    pipeline_fill: int = 5
    cycles_per_block: int = 1
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

    ``score`` is only meaningful when ``success`` is set.  ``k_reached``
    is the final diagonal ``len(b) - len(a)`` whenever the wavefront loop
    ran, so also on an Eq. 6 failure; it is 0 when the Aligner skipped
    the pair (unsupported, or a final diagonal beyond ``±k_max``).
    ``bt_payload`` holds the run's origin blocks back to back in emission
    order when backtrace is enabled, ``config.bt_block_bytes`` (40 at
    64 PS) each; the Aligner fills one ``bytearray``.
    """

    alignment_id: int
    success: bool
    score: int
    k_reached: int
    cycles: int
    stats: AlignerStats
    bt_payload: bytes | bytearray | None


@dataclass(frozen=True, eq=False)
class AlignerTrace:
    """The dataflow of one alignment: everything :func:`price` needs.

    ``widths`` holds the band width of every processed wavefront step,
    score 0's single cell first; it is empty when the Aligner skipped
    the pair.  ``block_maxima`` holds, step after step, the longest
    16-base block run of each ``group`` consecutive cells from the
    band's ``lo`` (uint16, or uint32 for reads past a megabase).  Both
    arrays are read-only.  ``extend_blocks`` and ``extend_matches`` are
    the run's totals.  With backtrace on, ``bt_payload`` holds the origin
    blocks packed for ``bt_sections`` parallel sections; with it off,
    both are ``None``.
    """

    success: bool
    score: int
    k_reached: int
    group: int
    widths: np.ndarray
    block_maxima: np.ndarray
    extend_blocks: int
    extend_matches: int
    bt_payload: bytearray | None
    bt_sections: int | None


def price(
    trace: AlignerTrace, parallel_sections: int, timings: AlignerTimings
) -> tuple[int, AlignerStats]:
    """Cycles and work counters of ``trace`` on ``parallel_sections``
    sections under ``timings``: arithmetic only, no alignment.

    Raises ``ValueError`` when ``parallel_sections`` is not a multiple of
    the trace's group, or when a trace with an origin payload is priced
    at another section count than the one its blocks are packed for.
    """
    g = trace.group
    if parallel_sections % g:
        raise ValueError(
            f"a trace of {g}-cell groups cannot price {parallel_sections} "
            "parallel sections"
        )
    if trace.bt_payload is not None and parallel_sections != trace.bt_sections:
        raise ValueError(
            f"origin blocks packed for {trace.bt_sections} sections cannot "
            f"be priced at {parallel_sections}"
        )
    t = timings
    widths = trace.widths
    steps = len(widths)
    if not steps:
        # The Aligner skipped the pair: setup, no drain.
        return t.setup_cycles, AlignerStats()
    groups = -(-widths // parallel_sections)
    maxima = trace.block_maxima
    ratio = parallel_sections // g
    if ratio > 1:
        # Step i's j-th group is its trace groups ratio*j .. ratio*j + ratio - 1.
        sub = -(-widths // g)
        firsts = np.cumsum(sub) - sub - ratio * (np.cumsum(groups) - groups)
        starts = ratio * np.arange(int(groups.sum())) + np.repeat(firsts, groups)
        maxima = np.maximum.reduceat(maxima, starts)
    longest = int(np.maximum(maxima, 1).sum(dtype=np.int64))
    extend_cycles = int(groups.sum()) * t.pipeline_fill + t.cycles_per_block * longest
    # Score 0 has no Compute groups, only the step overhead.
    compute_cycles = t.cycles_per_group * int(groups[1:].sum()) + t.step_overhead * (steps - 1)
    stats = AlignerStats(
        wavefront_steps=steps,
        cells_processed=3 * int(widths[1:].sum()),
        extend_blocks=trace.extend_blocks,
        extend_matches=trace.extend_matches,
        peak_band_width=int(widths.max()),
        compute_cycles=compute_cycles,
        extend_cycles=extend_cycles,
    )
    cycles = t.setup_cycles + t.step_overhead + compute_cycles + extend_cycles + t.drain_cycles
    return cycles, stats


#: ``(seq_a, seq_b, k_max, penalties, g)``: everything a payload-free
#: trace depends on.
_MemoKey = tuple[str, str, int, AffinePenalties, int]


class _TraceMemo:
    """An LRU of payload-free traces, bounded by the bytes of their
    sequences and arrays."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict[_MemoKey, tuple[AlignerTrace, int]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def trace(self, key: _MemoKey, make: Callable[[], AlignerTrace]) -> AlignerTrace:
        """The trace memoised under ``key``; ``make()`` traces a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key][0]
            trace = make()
            size = len(key[0]) + len(key[1]) + trace.widths.nbytes + trace.block_maxima.nbytes
            if size <= self.max_bytes:
                self._entries[key] = (trace, size)
                self.nbytes += size
                while self.nbytes > self.max_bytes:
                    self.nbytes -= self._entries.popitem(last=False)[1][1]
            return trace

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


#: The process's payload-free traces: at most 32 MiB of them.
TRACE_MEMO = _TraceMemo(32 << 20)


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


class _StepLog:
    """What a trace keeps of each wavefront step's Extend."""

    def __init__(self, group: int, dtype: type[np.unsignedinteger]) -> None:
        self.group = group
        self.dtype = dtype
        self.widths: list[int] = []
        self.maxima: list[np.ndarray] = []
        self.blocks = 0
        self.matches = 0

    def record(self, blocks: np.ndarray, matches: int) -> None:
        self.widths.append(len(blocks))
        self.blocks += int(blocks.sum())
        self.matches += matches
        if self.group > 1:
            blocks = np.maximum.reduceat(blocks, np.arange(0, len(blocks), self.group))
        self.maxima.append(blocks.astype(self.dtype))


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
        """Align one extracted pair under the hardware constraints: its
        :meth:`trace`, priced at this Aligner's sections and timings."""
        trace = self.trace(job)
        cycles, stats = price(trace, self.config.parallel_sections, self.timings)
        return AlignerRun(
            alignment_id=job.alignment_id,
            success=trace.success,
            score=trace.score,
            k_reached=trace.k_reached,
            cycles=cycles,
            stats=stats,
            bt_payload=trace.bt_payload,
        )

    def trace(self, job: ExtractedJob) -> AlignerTrace:
        """The dataflow of one pair, in groups of ``gcd(n_ps, 16)`` cells.

        With backtrace off, a supported pair's trace comes from (or goes
        to) :data:`TRACE_MEMO`.
        """
        cfg = self.config
        group = gcd(cfg.parallel_sections, _TRACE_GROUP)
        if cfg.backtrace or not job.supported:
            return self._trace(job, group)
        key = (job.seq_a, job.seq_b, cfg.k_max, cfg.penalties, group)
        return TRACE_MEMO.trace(key, lambda: self._trace(job, group))

    # -- the dataflow ----------------------------------------------------------

    def _trace(self, job: ExtractedJob, group: int) -> AlignerTrace:
        cfg = self.config
        bt = bytearray() if cfg.backtrace else None
        a, b = job.seq_a, job.seq_b
        k_final = len(b) - len(a)
        # A cell's block count is at most min(n, m) // 16 + 1.
        dtype = np.uint16 if min(len(a), len(b)) < 0xFFFF * 16 else np.uint32
        log = _StepLog(group, dtype)
        score = None
        if job.supported and abs(k_final) <= cfg.k_max:
            score = self._align(a, b, log, bt)
        # Otherwise the Aligner skips the pair (§4.2), or its terminating
        # diagonal does not exist in the vectors; Success reports either.
        widths = np.array(log.widths, dtype=np.int64)
        maxima = np.concatenate(log.maxima) if log.maxima else np.zeros(0, dtype)
        widths.flags.writeable = False
        maxima.flags.writeable = False
        return AlignerTrace(
            success=score is not None,
            score=score or 0,
            k_reached=k_final if log.widths else 0,
            group=group,
            widths=widths,
            block_maxima=maxima,
            extend_blocks=log.blocks,
            extend_matches=log.matches,
            bt_payload=bt,
            bt_sections=None if bt is None else cfg.parallel_sections,
        )

    def _align(
        self, a: str, b: str, log: _StepLog, bt: bytearray | None
    ) -> int | None:
        """Run the wavefront loop; the score, or ``None`` once Eq. 6's
        ``Score_max`` is passed."""
        cfg = self.config
        p = cfg.penalties
        n, m = len(a), len(b)
        k_final = m - n
        aw = sequence_words(a, sentinel=_SENTINEL_A)
        bw = sequence_words(b, sentinel=_SENTINEL_B)

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
        ext = extend_kernel(aw, bw, n, m, m0, 0, out=m0)
        log.record(ext.blocks, ext.matches)
        if k_final == 0 and m0[0] == m:
            return 0

        x, oe, e = p.mismatch, p.gap_open_total, p.gap_extend
        step = p.score_granularity
        diagonals = np.arange(-base, base + 1, dtype=np.int64)

        s = 0
        while True:
            s += step
            if s > cfg.max_score:
                return None

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
            start, stop = lo + base, hi + base + 1

            # Eq. 3's sources, read before the frame column rotates in:
            # the s-o-e M column once for both k-1 and k+1 (Fig. 6).
            m_x = M.read(s - x)
            m_oe = M.read(s - oe)
            i_e = I.read(s - e)
            d_e = D.read(s - e)
            m_new = M.rotate(s, start, stop)[start:stop]
            out = compute_kernel(
                m_x[start:stop],
                m_oe[start - 1 : stop - 1],
                i_e[start - 1 : stop - 1],
                m_oe[start + 1 : stop + 1],
                d_e[start + 1 : stop + 1],
                diagonals[start:stop],
                n,
                m,
                emit_origins=bt is not None,
                out=(
                    m_new,
                    I.rotate(s, start, stop)[start:stop],
                    D.rotate(s, start, stop)[start:stop],
                ),
            )
            if bt is not None:
                bt.extend(pack_origin_blocks(out.origins, cfg.parallel_sections))

            ext = extend_kernel(aw, bw, n, m, m_new, lo, out=m_new)
            log.record(ext.blocks, ext.matches)

            if lo <= k_final <= hi and m_new[k_final - lo] == m:
                return s
