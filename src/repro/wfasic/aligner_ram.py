"""RAM-accurate Aligner — the gate-level-simulation analog (§5.1).

The fast :class:`~repro.wfasic.aligner.Aligner` computes wavefronts with
whole-band numpy kernels; this variant additionally routes **every
wavefront access through the banked RAM model of Fig. 6**
(:class:`~repro.wfasic.rams.WavefrontWindowRam`) and every sequence fetch
through the per-section :class:`~repro.wfasic.rams.InputSeqRam` replicas:

* wavefront columns live in the circular frame-column buffer, tagged and
  rotated exactly as §4.3.1 describes (the frame column overwrites the
  oldest column);
* each compute group performs the §4.3.3 access schedule — one parallel
  read of the ``s-o-e`` M column through the duplicated edge banks, one
  parallel read of the ``s-x`` column, one parallel read of the merged
  I/D window, one parallel write — with bank-conflict checking *live*;
* each extend fetches its 16-base blocks from the Input_Seq RAM words
  (2-bit packed), not from the decoded string.

It is 1-2 orders of magnitude slower than the fast Aligner (as GLS is
slower than RTL simulation) and is used the same way the paper uses GLS:
"a less number of inputs", checked for equivalence against the fast
model and the DP oracle.  Any bank conflict, mis-mapped address or
packing bug raises instead of silently diverging.
"""

from __future__ import annotations

import numpy as np

from typing import Callable

from ..align.lattice import ScoreLattice
from ..align.kernels import compute_kernel
from ..align.wfa import NULL_OFFSET
from .config import BASES_PER_RAM_WORD, WfasicConfig
from .extractor import ExtractedJob
from .rams import InputSeqRam, WavefrontWindowRam, wavefront_geometry

__all__ = ["RamAccurateAligner", "RamAlignerResult"]


class RamAlignerResult:
    """Score/success outcome of one RAM-accurate alignment."""

    def __init__(self, alignment_id: int, success: bool, score: int) -> None:
        self.alignment_id = alignment_id
        self.success = success
        self.score = score


class RamAccurateAligner:
    """One Aligner with live banked-RAM semantics (small inputs only)."""

    def __init__(self, config: WfasicConfig) -> None:
        if config.backtrace:
            raise ValueError(
                "the RAM-accurate model verifies the wavefront datapath; "
                "run it with backtrace disabled (origins are checked by "
                "the fast model's tests)"
            )
        self.config = config
        self._lattice = ScoreLattice.of(config.penalties)
        geo = wavefront_geometry(config)
        self._geo = geo
        n_ps = config.parallel_sections
        self.m_ram = WavefrontWindowRam(
            n_ps=n_ps, rows=geo.rows, columns=geo.m_columns, duplicate_edges=True
        )
        # I and D share macros (§4.6) but have distinct column spaces;
        # model them as two windows over the same bank structure.
        self.i_ram = WavefrontWindowRam(
            n_ps=n_ps, rows=geo.rows, columns=geo.id_columns, duplicate_edges=False
        )
        self.d_ram = WavefrontWindowRam(
            n_ps=n_ps, rows=geo.rows, columns=geo.id_columns, duplicate_edges=False
        )
        # One Input_Seq replica pair per parallel section (§4.3); loading
        # all replicas and reading from the section's own copy verifies
        # the replication story without O(n_ps) memory blowup: keep two
        # replicas (first and last section) and check they stay identical.
        self.seq_a_rams = [InputSeqRam(config.max_read_len) for _ in range(2)]
        self.seq_b_rams = [InputSeqRam(config.max_read_len) for _ in range(2)]

    # -- row/diagonal mapping (Fig. 6: row = k_max - k) ------------------------

    def _row(self, k: int) -> int:
        return self.config.k_max - k

    # -- sequence fetch through the RAM words ------------------------------------

    def _fetch_base(self, rams: list[InputSeqRam], section: int, pos: int) -> int:
        """2-bit code of base ``pos`` via the section's RAM replica."""
        ram = rams[section % len(rams)]
        word = ram.read_word(InputSeqRam.HEADER_WORDS + pos // BASES_PER_RAM_WORD)
        return (word >> (2 * (pos % BASES_PER_RAM_WORD))) & 0x3

    # -- the main loop --------------------------------------------------------------

    def run(
        self, job: ExtractedJob, probe: Callable[..., object] | None = None
    ) -> RamAlignerResult:
        """Align one job; ``probe(s, band, column)`` is called after each
        wavefront step with the frame column's contents (test hook)."""
        cfg = self.config
        if not job.supported:
            return RamAlignerResult(job.alignment_id, False, 0)
        for ram in self.seq_a_rams:
            ram.load(job.alignment_id, job.len_a, job.packed_a)
        for ram in self.seq_b_rams:
            ram.load(job.alignment_id, job.len_b, job.packed_b)
        assert (
            self.seq_a_rams[0].base_words() == self.seq_a_rams[1].base_words()
        ).all(), "Input_Seq replicas diverged"

        # The Aligner reads the lengths from address 1 (§4.3.2).
        n = self.seq_a_rams[0].length
        m = self.seq_b_rams[0].length
        k_final = m - n
        if abs(k_final) > cfg.k_max:
            return RamAlignerResult(job.alignment_id, False, 0)

        p = cfg.penalties
        x, oe, e = p.mismatch, p.gap_open_total, p.gap_extend
        g = p.score_granularity
        geo = self._geo
        n_ps = cfg.parallel_sections

        # Column tags: which score currently lives in each circular slot.
        m_tags: dict[int, int] = {}
        id_tags: dict[int, int] = {}

        def m_col(score: int) -> int | None:
            slot = (score // g) % geo.m_columns
            return slot if m_tags.get(slot) == score else None

        def id_col(score: int) -> int | None:
            slot = (score // g) % geo.id_columns
            return slot if id_tags.get(slot) == score else None

        # Initialise: M[0] at k=0 with extension.
        for col in range(geo.m_columns):
            self.m_ram.clear_column(col)
        for col in range(geo.id_columns):
            self.i_ram.clear_column(col)
            self.d_ram.clear_column(col)
        off0 = self._extend_cell(0, 0, n, m)
        slot0 = 0
        self._write_cell(self.m_ram, slot0, self._row(0), off0)
        m_tags[slot0] = 0
        if off0 == m and k_final == 0:
            return RamAlignerResult(job.alignment_id, True, 0)

        s = 0
        while True:
            s += g
            if s > cfg.max_score:
                return RamAlignerResult(job.alignment_id, False, 0)
            band = self._lattice.m_band(s)
            if band is None:
                continue
            band = band.clamped(max(-cfg.k_max, -n), min(cfg.k_max, m))
            if band is None:
                continue

            # Rotate the frame columns onto the oldest slots and tag them.
            m_frame = (s // g) % geo.m_columns
            id_frame = (s // g) % geo.id_columns
            self.m_ram.clear_column(m_frame)
            self.i_ram.clear_column(id_frame)
            self.d_ram.clear_column(id_frame)
            m_tags[m_frame] = s
            id_tags[id_frame] = s

            src_mx = m_col(s - x) if s - x >= 0 else None
            src_moe = m_col(s - oe) if s - oe >= 0 else None
            src_ide = id_col(s - e) if s - e >= 0 else None

            any_live = False
            # Process the frame column in aligned groups of n_ps rows, as
            # the parallel sections do.
            row_lo = self._row(band.hi)  # highest k -> lowest row
            row_hi = self._row(band.lo)
            group_base = (row_lo // n_ps) * n_ps
            for base in range(group_base, row_hi + 1, n_ps):
                rows = [
                    r for r in range(base, min(base + n_ps, geo.rows))
                ]
                ks = np.array([cfg.k_max - r for r in rows], dtype=np.int64)
                in_band = (ks >= band.lo) & (ks <= band.hi)

                # Access 1: the s-o-e M column — ONE parallel read of rows
                # base-1 .. base+n_ps (the k-1 and k+1 windows together);
                # only the duplicated edge banks make this conflict-free,
                # which is exactly the Fig. 6 design point under test.
                m_oe_km1, m_oe_kp1 = self._read_oe_window(src_moe, rows)
                # Access 2: the s-x M column, same rows.
                m_x = self._read_shifted(self.m_ram, src_mx, ks)
                # Access 3 (parallel with the M accesses): I/D windows —
                # I[s-e, k-1] lives on diagonals ks-1, D[s-e, k+1] on ks+1.
                i_e_km1 = self._read_shifted(self.i_ram, src_ide, ks - 1)
                d_e_kp1 = self._read_shifted(self.d_ram, src_ide, ks + 1)

                out = compute_kernel(
                    m_x, m_oe_km1, i_e_km1, m_oe_kp1, d_e_kp1, ks, n, m
                )
                mvals = out.m.copy()
                mvals[~in_band] = NULL_OFFSET
                ivals = out.i.copy()
                ivals[~in_band] = NULL_OFFSET
                dvals = out.d.copy()
                dvals[~in_band] = NULL_OFFSET

                # Extend the M cells (one Extend sub-module per section).
                for idx, k in enumerate(ks):
                    if mvals[idx] >= 0:
                        mvals[idx] = self._extend_cell(
                            int(mvals[idx]), int(k), n, m, section=idx
                        )
                        any_live = True

                # Access 4: one parallel write per window.
                self.m_ram.write_group(m_frame, base, mvals)
                self.i_ram.write_group(id_frame, base, ivals)
                self.d_ram.write_group(id_frame, base, dvals)

            if probe is not None:
                probe(s, band, self.m_ram.column(m_frame).copy())
            if not any_live:
                continue
            if band.lo <= k_final <= band.hi:
                row = self._row(k_final)
                value = int(self.m_ram.column(m_frame)[row])
                if value == m:
                    return RamAlignerResult(job.alignment_id, True, s)

    # -- helpers ---------------------------------------------------------------------

    def _read_oe_window(
        self, col: int | None, group_rows: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """One combined parallel read of the ``s-o-e`` column.

        Returns the ``M[s-o-e, k-1]`` and ``M[s-o-e, k+1]`` windows for
        the group.  With ``row = k_max - k``: ``k-1`` lives at ``row+1``
        and ``k+1`` at ``row-1``, so the combined footprint is rows
        ``base-1 .. base+n_ps`` — the §4.3.1 access that needs RAM 1'/4'.
        """
        width = len(group_rows)
        if col is None:
            null = np.full(width, NULL_OFFSET, dtype=np.int64)
            return null, null.copy()
        footprint = [
            r
            for r in range(group_rows[0] - 1, group_rows[-1] + 2)
            if 0 <= r < self._geo.rows
        ]
        values = dict(zip(footprint, self.m_ram.read_rows(col, footprint)))
        km1 = np.array(
            [values.get(r + 1, NULL_OFFSET) for r in group_rows], dtype=np.int64
        )
        kp1 = np.array(
            [values.get(r - 1, NULL_OFFSET) for r in group_rows], dtype=np.int64
        )
        return km1, kp1

    def _read_shifted(
        self, ram: WavefrontWindowRam, col: int | None, ks: np.ndarray
    ) -> np.ndarray:
        """Parallel read of cells at diagonals ``ks`` from a column."""
        if col is None:
            return np.full(len(ks), NULL_OFFSET, dtype=np.int64)
        rows = [self.config.k_max - int(k) for k in ks]
        valid = [0 <= r < self._geo.rows for r in rows]
        out = np.full(len(ks), NULL_OFFSET, dtype=np.int64)
        live_rows = [r for r, v in zip(rows, valid) if v]
        if live_rows:
            values = ram.read_rows(col, live_rows)
            out[np.array(valid)] = values
        return out

    def _write_cell(
        self, ram: WavefrontWindowRam, col: int, row: int, value: int
    ) -> None:
        base = (row // self.config.parallel_sections) * self.config.parallel_sections
        group = np.full(
            min(self.config.parallel_sections, self._geo.rows - base),
            NULL_OFFSET,
            dtype=np.int64,
        )
        group[row - base] = value
        # Merge with existing contents (single-cell init write).
        existing = ram.column(col)[base : base + len(group)].copy()
        existing[row - base] = value
        ram.write_group(col, base, existing)

    def _extend_cell(
        self, offset: int, k: int, n: int, m: int, *, section: int = 0
    ) -> int:
        """Greedy extension fetching bases through the Input_Seq RAMs."""
        i = offset - k
        j = offset
        while i < n and j < m and (
            self._fetch_base(self.seq_a_rams, section, i)
            == self._fetch_base(self.seq_b_rams, section, j)
        ):
            i += 1
            j += 1
        return j
