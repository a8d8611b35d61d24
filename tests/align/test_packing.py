"""Unit tests for batch sequence packing."""

from repro.align.kernels import pad_sequence
from repro.align.packing import pack_batch


class TestPackBatch:
    def test_rows_match_1d_padding(self):
        seqs = ["ACGT", "", "ACGTACGTACGTACGTACGT"]
        mat = pack_batch(seqs, sentinel=0xFF)
        assert mat.shape == (3, 20 + 16)
        for r, seq in enumerate(seqs):
            row = pad_sequence(seq, sentinel=0xFF)
            assert (mat[r, : len(row)] == row).all()
            assert (mat[r, len(row) :] == 0xFF).all()

    def test_empty_batch_of_empties(self):
        mat = pack_batch(["", ""], sentinel=0xFE)
        assert mat.shape == (2, 16)
        assert (mat == 0xFE).all()

    def test_distinct_sentinels_never_equal(self):
        a = pack_batch(["AC"], sentinel=0xFF)
        b = pack_batch(["AC"], sentinel=0xFE)
        assert (a[0, 2:] != b[0, 2:]).all()
