"""Unit tests for the vectorised compute/extend kernels."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.align import NULL_OFFSET
from repro.align.kernels import (
    ORIGIN_D_EXT_BIT,
    ORIGIN_I_EXT_BIT,
    ORIGIN_M_DEL,
    ORIGIN_M_INS,
    ORIGIN_M_SUB,
    compute_kernel,
    extend_kernel,
    pad_sequence,
    sequence_words,
)

NULL = NULL_OFFSET


def arr(*values):
    return np.array(values, dtype=np.int64)


class TestPadSequence:
    def test_length_and_sentinel(self):
        p = pad_sequence("ACGT", sentinel=0xFF)
        assert len(p) == 4 + 16
        assert (p[4:] == 0xFF).all()
        assert bytes(p[:4]) == b"ACGT"

    def test_empty(self):
        p = pad_sequence("", sentinel=0xFE)
        assert len(p) == 16
        assert (p == 0xFE).all()


class TestExtendKernel:
    def _run(self, a, b, offsets, lo):
        aw = sequence_words(a, sentinel=0xFF)
        bw = sequence_words(b, sentinel=0xFE)
        return extend_kernel(aw, bw, len(a), len(b), arr(*offsets), lo)

    def test_full_match_single_diagonal(self):
        out = self._run("ACGT", "ACGT", [0], 0)
        assert out.offsets[0] == 4
        assert out.matches == 4
        assert out.blocks[0] == 1

    def test_stops_at_mismatch(self):
        out = self._run("ACGTAA", "ACGTTT", [0], 0)
        assert out.offsets[0] == 4
        # 4 matches + 1 discovery compare.
        assert out.comparisons == 5

    def test_null_cells_skipped(self):
        out = self._run("ACGT", "ACGT", [NULL, 0, NULL], -1)
        assert out.offsets[0] == NULL
        assert out.offsets[2] == NULL
        assert out.offsets[1] == 4
        assert out.blocks[0] == 0 and out.blocks[2] == 0

    def test_multi_block_counts(self):
        a = "A" * 40
        out = self._run(a, a, [0], 0)
        assert out.offsets[0] == 40
        # 40 bases = ceil(40/16) = 3 comparator blocks.
        assert out.blocks[0] == 3
        # No discovery compare: the run was cut by the sequence end.
        assert out.comparisons == 40

    def test_block_boundary_exact(self):
        a = "A" * 16
        out = self._run(a, a, [0], 0)
        assert out.offsets[0] == 16
        # One full block, then the boundary retires the cell: the second
        # block is never issued because i/j already reached the ends.
        assert out.blocks[0] in (1, 2)

    def test_offset_mid_sequence(self):
        # Start at offset 2 on diagonal 0: positions 2.. of both.
        out = self._run("AACGT", "AACGT", [2], 0)
        assert out.offsets[0] == 5

    def test_diagonal_shift(self):
        # k = 1: i = offset - 1.  a="CGT" vs b="ACGT" from offset 1.
        out = self._run("CGT", "ACGT", [1], 1)
        assert out.offsets[0] == 4

    def test_boundary_cell_no_extension(self):
        # offset already at text end -> no blocks, no matches.
        out = self._run("AC", "AC", [2], 0)
        assert out.offsets[0] == 2
        assert out.blocks[0] == 0
        assert out.matches == 0

    def test_many_cells_mixed(self):
        a = "ACGTACGTACGT"
        out = self._run(a, a, [0, 1, NULL, 0], -1)
        # k=-1 cell: i = 0 - (-1) = 1 -> compares a[1:] vs b[0:].
        assert out.offsets[3] >= 0

    def test_sentinels_never_match_each_other(self):
        # Past both ends the sentinels differ, so extension cannot run
        # into the padding even when both cursors leave their sequences.
        out = self._run("", "", [0], 0)
        assert out.offsets[0] == 0
        assert out.matches == 0


def block_loop_extend(a, b, offsets, lo, block=16):
    """Pure-Python model of the Extend sub-module's 16-base block loop.

    Each iteration is one comparator operation: it compares up to
    ``block`` bases and the cell retires on the first block holding a
    mismatch or a sequence end.  Returns (offsets, blocks, matches,
    comparisons) with the kernel's scalar-equivalent comparison count.
    """
    n, m = len(a), len(b)
    out = list(offsets)
    blocks = [0] * len(offsets)
    matches = comparisons = 0
    for t, off in enumerate(offsets):
        j = off
        i = j - (lo + t)
        if off < 0 or i >= n or j >= m:
            continue
        while True:
            blocks[t] += 1
            run = 0
            while run < block and i + run < n and j + run < m and a[i + run] == b[j + run]:
                run += 1
            hit = run < block
            i, j = i + run, j + run
            inside = i < n and j < m
            matches += run
            comparisons += run + (hit and inside)
            if hit or not inside:
                break
        out[t] = j
    return out, blocks, matches, comparisons


@st.composite
def extend_cases(draw):
    """A sequence pair plus one frame column of valid or NULL offsets."""
    alphabet = st.sampled_from("AC")
    a = draw(st.text(alphabet, max_size=70))
    if draw(st.booleans()):
        b = draw(st.text(alphabet, max_size=70))
    else:
        # A few edits of ``a``: long matching runs cross block boundaries.
        chars = list(a)
        for _ in range(draw(st.integers(0, 3))):
            if chars:
                chars[draw(st.integers(0, len(chars) - 1))] = draw(alphabet)
        b = "".join(chars) + draw(st.text(alphabet, max_size=3))
    n, m = len(a), len(b)
    width = draw(st.integers(0, 12))
    lo = draw(st.integers(-n, m))
    offsets = []
    for t in range(width):
        k = lo + t
        valid = range(max(0, k), min(m, n + k) + 1)
        if valid and draw(st.booleans()):
            offsets.append(draw(st.sampled_from(valid)))
        else:
            offsets.append(NULL)
    return a, b, offsets, lo


class TestExtendKernelMatchesBlockLoop:
    """The word-wise kernel equals the 16-base block loop, counters included."""

    @staticmethod
    def check(a, b, offsets, lo):
        out = extend_kernel(
            sequence_words(a, sentinel=0xFF),
            sequence_words(b, sentinel=0xFE),
            len(a),
            len(b),
            np.array(offsets, dtype=np.int64),
            lo,
        )
        ref_offsets, ref_blocks, ref_matches, ref_comparisons = block_loop_extend(
            a, b, offsets, lo
        )
        assert out.offsets.tolist() == ref_offsets
        assert out.blocks.tolist() == ref_blocks
        assert out.matches == ref_matches
        assert out.comparisons == ref_comparisons

    @pytest.mark.parametrize(
        "a, b, offsets, lo",
        [
            # L % 16 == 0 and the run ends exactly at n, then at m.
            ("A" * 32, "A" * 40, [0], 0),
            ("A" * 40, "A" * 32, [0], 0),
            ("C" * 8 + "A" * 16, "A" * 16 + "C", [8], -8),
            # L % 16 == 0 ending on a mismatch inside both sequences.
            ("A" * 16 + "C", "A" * 16 + "G", [0], 0),
            # Empty sequences.
            ("", "", [0], 0),
            ("", "ACGT", [0, 1, 2], 0),
            ("ACGT", "", [0, 0, 0], -2),
            # Width 0.
            ("ACGT", "ACGT", [], 0),
            # All-NULL column.
            ("ACGT", "ACGT", [NULL, NULL, NULL], -1),
            # Cells starting at i = n - 1.
            ("ACGTA", "TTTTTA", [5], 1),
            ("ACGTA", "TTTTTC", [5], 1),
            # Identical sequences, every diagonal live.
            ("ACGT" * 10, "ACGT" * 10, [0, 0, 0, 1, 2], -2),
            ("ACGTTGCA" * 9, "ACGTTGCA" * 9, [0], 0),
        ],
    )
    def test_edge_cases(self, a, b, offsets, lo):
        self.check(a, b, offsets, lo)

    @given(extend_cases())
    @settings(max_examples=300, deadline=None)
    def test_property(self, case):
        self.check(*case)


class TestComputeKernel:
    def test_matches_eq3_by_hand(self):
        # One diagonal k=0 with M[s-x,k]=2, I sources null, D sources null.
        ks = arr(0)
        out = compute_kernel(
            arr(2), arr(NULL), arr(NULL), arr(NULL), arr(NULL), ks, 10, 10
        )
        assert out.m[0] == 3  # substitution advances the offset
        assert out.i[0] == NULL
        assert out.d[0] == NULL

    def test_insertion_open_and_extend(self):
        ks = arr(1)
        # open: M[s-oe, 0] = 5 -> I = 6; extend: I[s-e, 0] = 7 -> I = 8.
        out = compute_kernel(
            arr(NULL), arr(5), arr(7), arr(NULL), arr(NULL), ks, 20, 20
        )
        assert out.i[0] == 8
        assert out.m[0] == 8  # M inherits the I value

    def test_deletion_no_offset_advance(self):
        ks = arr(-1)
        # deletion keeps the offset: D[s,k] = max(M[s-oe,k+1], D[s-e,k+1]).
        out = compute_kernel(
            arr(NULL), arr(NULL), arr(NULL), arr(4), arr(6), ks, 20, 20
        )
        assert out.d[0] == 6
        assert out.m[0] == 6

    def test_dead_cell_beyond_text_masked(self):
        ks = arr(0)
        # Substitution would push offset to m+1 -> dead.
        out = compute_kernel(
            arr(5), arr(NULL), arr(NULL), arr(NULL), arr(NULL), ks, 10, 5
        )
        assert out.m[0] == NULL

    def test_dead_candidate_does_not_shadow_live_one(self):
        ks = arr(0)
        # Insertion candidate overshoots (offset 6 > m=5) but the
        # substitution lands exactly at the boundary; M must keep it.
        out = compute_kernel(
            arr(4), arr(5), arr(NULL), arr(NULL), arr(NULL), ks, 10, 5
        )
        assert out.i[0] == NULL
        assert out.m[0] == 5

    def test_dead_cell_beyond_pattern_masked(self):
        # i = offset - k > n -> dead.  offset 9, k = -2 -> i = 11 > n = 10.
        ks = arr(-2)
        out = compute_kernel(
            arr(8), arr(NULL), arr(NULL), arr(NULL), arr(NULL), ks, 10, 20
        )
        assert out.m[0] == NULL

    def test_any_live_flag(self):
        ks = arr(0)
        dead = compute_kernel(
            arr(NULL), arr(NULL), arr(NULL), arr(NULL), arr(NULL), ks, 5, 5
        )
        assert not dead.any_live
        live = compute_kernel(
            arr(1), arr(NULL), arr(NULL), arr(NULL), arr(NULL), ks, 5, 5
        )
        assert live.any_live

    def test_no_origins_by_default(self):
        ks = arr(0)
        out = compute_kernel(
            arr(1), arr(NULL), arr(NULL), arr(NULL), arr(NULL), ks, 5, 5
        )
        assert out.origins is None


class TestOriginEncoding:
    def test_sub_origin(self):
        ks = arr(0)
        out = compute_kernel(
            arr(2), arr(NULL), arr(NULL), arr(NULL), arr(NULL), ks, 9, 9,
            emit_origins=True,
        )
        assert out.origins[0] & 0b111 == ORIGIN_M_SUB

    def test_ins_origin_with_extend_bit(self):
        ks = arr(1)
        out = compute_kernel(
            arr(NULL), arr(5), arr(7), arr(NULL), arr(NULL), ks, 20, 20,
            emit_origins=True,
        )
        assert out.origins[0] & 0b111 == ORIGIN_M_INS
        assert out.origins[0] & ORIGIN_I_EXT_BIT  # 7 (extend) beat 5 (open)

    def test_ins_origin_open(self):
        ks = arr(1)
        out = compute_kernel(
            arr(NULL), arr(9), arr(3), arr(NULL), arr(NULL), ks, 20, 20,
            emit_origins=True,
        )
        assert out.origins[0] & 0b111 == ORIGIN_M_INS
        assert not (out.origins[0] & ORIGIN_I_EXT_BIT)

    def test_del_origin_bits(self):
        ks = arr(-1)
        out = compute_kernel(
            arr(NULL), arr(NULL), arr(NULL), arr(2), arr(8), ks, 20, 20,
            emit_origins=True,
        )
        assert out.origins[0] & 0b111 == ORIGIN_M_DEL
        assert out.origins[0] & ORIGIN_D_EXT_BIT

    def test_sub_preferred_on_tie(self):
        # All three sources produce the same offset: backtrace preference
        # order is substitution first.
        ks = arr(0)
        out = compute_kernel(
            arr(5), arr(5), arr(NULL), arr(6), arr(NULL), ks, 20, 20,
            emit_origins=True,
        )
        assert out.m[0] == 6
        assert out.origins[0] & 0b111 == ORIGIN_M_SUB

    def test_origins_fit_five_bits(self):
        # §4.3.3: origins are concatenated into 5 bits per cell.
        rng = np.random.default_rng(7)
        vals = rng.integers(-1, 12, size=(5, 32)).astype(np.int64)
        vals[vals < 0] = NULL
        ks = np.arange(-16, 16, dtype=np.int64)
        out = compute_kernel(
            vals[0], vals[1], vals[2], vals[3], vals[4], ks, 100, 100,
            emit_origins=True,
        )
        assert (out.origins < 32).all()


class TestBatchedKernelsMatch1D:
    """The 2D kernels must reproduce the 1D kernels row by row."""

    def test_compute_rows_equal_1d(self):
        from repro.align.kernels import compute_kernel_batched

        rng = np.random.default_rng(13)
        pairs, width = 6, 24
        vals = rng.integers(-1, 30, size=(5, pairs, width)).astype(np.int64)
        vals[vals < 0] = NULL
        lo = rng.integers(-10, 2, size=pairs)
        ns = rng.integers(5, 40, size=pairs)
        ms = rng.integers(5, 40, size=pairs)
        ks = lo[:, None] + np.arange(width, dtype=np.int64)[None, :]
        valid = np.ones((pairs, width), dtype=bool)

        out = compute_kernel_batched(
            vals[0].copy(), vals[1].copy(), vals[2].copy(),
            vals[3].copy(), vals[4].copy(),
            ks, ns[:, None], ms[:, None], valid,
        )
        for r in range(pairs):
            ref = compute_kernel(
                vals[0, r].copy(), vals[1, r].copy(), vals[2, r].copy(),
                vals[3, r].copy(), vals[4, r].copy(),
                ks[r], int(ns[r]), int(ms[r]),
            )
            assert (out.m[r] == ref.m).all()
            assert (out.i[r] == ref.i).all()
            assert (out.d[r] == ref.d).all()
            assert out.live_m[r] == ref.any_live

    def test_compute_valid_mask_kills_padding_columns(self):
        from repro.align.kernels import compute_kernel_batched

        vals = np.full((5, 1, 4), 3, dtype=np.int64)
        ks = np.zeros((1, 4), dtype=np.int64) + np.arange(4)
        valid = np.array([[True, True, False, False]])
        out = compute_kernel_batched(
            vals[0], vals[1], vals[2], vals[3], vals[4],
            ks, np.array([[20]]), np.array([[20]]), valid,
        )
        assert (out.m[0, 2:] == NULL).all()
        assert (out.m[0, :2] >= 0).all()

    def test_extend_rows_equal_1d(self):
        import random as _random

        from repro.align.kernels import batch_words, extend_kernel_batched
        from repro.align.packing import pack_batch
        from tests.util import random_pair

        rng = _random.Random(4)
        seqs = [random_pair(rng, length, 0.2) for length in (0, 3, 20, 40, 40)]
        aw = batch_words(pack_batch([a for a, _ in seqs], sentinel=0xFF))
        bw = batch_words(pack_batch([b for _, b in seqs], sentinel=0xFE))
        ns = np.array([len(a) for a, _ in seqs], dtype=np.int64)
        ms = np.array([len(b) for _, b in seqs], dtype=np.int64)
        width = 7
        lo = np.array([-1, 0, -3, -2, 1], dtype=np.int64)
        offsets = np.full((len(seqs), width), NULL, dtype=np.int64)
        for r, (a, b) in enumerate(seqs):
            for t in range(width):
                k = int(lo[r]) + t
                j = min(len(b), max(0, k + 1))
                if 0 <= j - k <= len(a):
                    offsets[r, t] = j

        rows = np.arange(len(seqs), dtype=np.int64)
        out = extend_kernel_batched(aw, bw, rows, ns, ms, offsets, lo)
        for r, (a, b) in enumerate(seqs):
            ref = extend_kernel(
                sequence_words(a, sentinel=0xFF),
                sequence_words(b, sentinel=0xFE),
                len(a), len(b), offsets[r], int(lo[r]),
            )
            assert (out.offsets[r] == ref.offsets).all()
            assert out.matches[r] == ref.matches
            assert out.comparisons[r] == ref.comparisons

    def test_gather_window_matches_wavefront_window(self):
        from repro.align.wfa import Wavefront

        data = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
        lo_src = np.array([-1, 2], dtype=np.int64)
        hi_src = np.array([1, 4], dtype=np.int64)
        lo_new = np.array([-2, 1], dtype=np.int64)
        out = padded_window(data, lo_src, hi_src, lo_new, 4, shift=1)
        for r in range(2):
            wf = Wavefront(int(lo_src[r]), int(hi_src[r]), data[r])
            ref = wf.window(int(lo_new[r]) + 1, int(lo_new[r]) + 4 + 1 - 1)
            assert (out[r] == ref).all()

    def test_gather_window_absent_row_is_null(self):
        from repro.align.kernels import BAND_ABSENT

        data = np.array([[7, 8]], dtype=np.int64)
        out = padded_window(
            data,
            np.array([BAND_ABSENT], dtype=np.int64),
            np.array([-BAND_ABSENT], dtype=np.int64),
            np.array([0], dtype=np.int64),
            3,
            shift=0,
        )
        assert (out == NULL).all()


def padded_window(data, lo_src, hi_src, lo_new, width, shift):
    """Cut :func:`window_columns` windows out of ``data`` laid out as the
    batched aligner stores a wavefront: cells past each row's band
    ``lo_src..hi_src`` nulled and one NULL pad column appended."""
    from repro.align.kernels import window_columns

    pairs, w_src = data.shape
    padded = np.full((pairs, w_src + 1), NULL, dtype=np.int64)
    for r in range(pairs):
        band = min(max(int(hi_src[r] - lo_src[r]) + 1, 0), w_src)
        padded[r, :band] = data[r, :band]
    cols = window_columns(lo_src, w_src, lo_new, width, shift)
    return np.take_along_axis(padded, cols, axis=1)


def batched_extend(rows):
    """Run :func:`extend_kernel_batched` on ``(a, b, offsets, lo)`` rows.

    The word matrices hold the sequences in reverse order behind one
    unrelated row, so the kernel must map every offset row through
    ``word_rows`` to find its words.
    """
    from repro.align.kernels import batch_words, extend_kernel_batched
    from repro.align.packing import pack_batch

    count = len(rows)
    width = max(len(offsets) for _, _, offsets, _ in rows)
    offsets = np.full((count, width), NULL, dtype=np.int64)
    for p, (_, _, row, _) in enumerate(rows):
        offsets[p, : len(row)] = row
    a_words = batch_words(
        pack_batch(["GT"] + [a for a, _, _, _ in reversed(rows)], sentinel=0xFF)
    )
    b_words = batch_words(
        pack_batch(["TG"] + [b for _, b, _, _ in reversed(rows)], sentinel=0xFE)
    )
    word_rows = np.arange(count, 0, -1, dtype=np.int64)
    out = extend_kernel_batched(
        a_words,
        b_words,
        word_rows,
        np.array([len(a) for a, _, _, _ in rows], dtype=np.int64),
        np.array([len(b) for _, b, _, _ in rows], dtype=np.int64),
        offsets,
        np.array([lo for _, _, _, lo in rows], dtype=np.int64),
    )
    return offsets, out


@st.composite
def gather_cases(draw):
    """A batched wavefront with random bands and windows to cut from it.

    Bands may be narrower than the matrix (the columns past them hold
    live values, which the padded layout must null) and rows may be
    :data:`BAND_ABSENT` on either side.
    """
    from repro.align.kernels import BAND_ABSENT

    pairs = draw(st.integers(1, 5))
    w_src = draw(st.integers(0, 8))
    values = draw(st.lists(st.integers(-1, 50), min_size=pairs * w_src,
                           max_size=pairs * w_src))
    data = np.array(values, dtype=np.int64).reshape(pairs, w_src)
    data[data < 0] = NULL
    lo_src, hi_src, lo_new = [], [], []
    for _ in range(pairs):
        if draw(st.integers(0, 3)) == 0:
            lo_src.append(BAND_ABSENT)
            hi_src.append(-BAND_ABSENT)
        else:
            lo = draw(st.integers(-12, 12))
            lo_src.append(lo)
            hi_src.append(lo + draw(st.integers(0, w_src)) - 1)
        absent = draw(st.integers(0, 3)) == 0
        lo_new.append(BAND_ABSENT if absent else draw(st.integers(-16, 16)))
    width = draw(st.integers(0, 10))
    shift = draw(st.sampled_from((-1, 0, 1)))
    lo_src, hi_src, lo_new = (
        np.array(xs, dtype=np.int64) for xs in (lo_src, hi_src, lo_new)
    )
    return data, lo_src, hi_src, lo_new, width, shift


class TestBatchedKernelsMatchReferences:
    """The batched kernels equal the per-pair references, row by row."""

    @staticmethod
    def check_extend(rows):
        offsets, out = batched_extend(rows)
        for p, (a, b, _, lo) in enumerate(rows):
            ref_offsets, _, ref_matches, ref_comparisons = block_loop_extend(
                a, b, offsets[p].tolist(), lo
            )
            assert out.offsets[p].tolist() == ref_offsets
            assert out.matches[p] == ref_matches
            assert out.comparisons[p] == ref_comparisons

    @staticmethod
    def check_gather(data, lo_src, hi_src, lo_new, width, shift):
        from repro.align.wfa import Wavefront

        out = padded_window(data, lo_src, hi_src, lo_new, width, shift)
        assert out.shape == (len(data), width)
        for r in range(len(data)):
            band = max(int(hi_src[r] - lo_src[r]) + 1, 0)
            wf = Wavefront(int(lo_src[r]), int(hi_src[r]), data[r, :band])
            start = int(lo_new[r]) + shift
            assert out[r].tolist() == wf.window(start, start + width - 1).tolist()

    @pytest.mark.parametrize(
        "rows",
        [
            # Runs of 8, 136 and 264 bases end on word and tail-pass
            # boundaries; the 300-base run needs several tail passes.
            [("A" * 8 + "C", "A" * 8 + "G", [0], 0)],
            [("A" * 136 + "C", "A" * 136 + "G", [0], 0)],
            [("A" * 264, "A" * 300, [0], 0), ("A" * 300, "A" * 300, [0, 0, 1], -1)],
            # Rows of different widths, an empty pair and an all-NULL row.
            [("", "", [0], 0), ("ACGT", "ACGA", [NULL, NULL], 0),
             ("ACGT" * 5, "ACGT" * 5, [0, 0, 0, 1, 2], -2)],
            # Width 0.
            [("ACGT", "ACGT", [], 0), ("AC", "AC", [], 1)],
        ],
    )
    def test_extend_edge_cases(self, rows):
        self.check_extend(rows)

    @given(st.lists(extend_cases(), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_extend_property(self, rows):
        self.check_extend(rows)

    def test_gather_zero_width_source(self):
        from repro.align.kernels import BAND_ABSENT

        data = np.zeros((2, 0), dtype=np.int64)
        for shift in (-1, 0, 1):
            self.check_gather(
                data,
                np.array([BAND_ABSENT, 3], dtype=np.int64),
                np.array([-BAND_ABSENT, 2], dtype=np.int64),
                np.array([0, 3], dtype=np.int64),
                4,
                shift,
            )

    @given(gather_cases())
    @settings(max_examples=300, deadline=None)
    def test_gather_property(self, case):
        self.check_gather(*case)
