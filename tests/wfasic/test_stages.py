"""Unit tests for the Extend/Compute stage cycle models."""

import numpy as np

from repro.align import NULL_OFFSET
from repro.align.kernels import sequence_words
from repro.wfasic import ComputeStage, ComputeTimings, ExtendStage, ExtendTimings
from repro.wfasic.extend import group_latencies


class TestGroupLatencies:
    def test_empty(self):
        assert len(group_latencies(np.zeros(0, dtype=np.int64), 64, ExtendTimings())) == 0

    def test_single_group_max(self):
        blocks = np.array([1, 3, 2, 0], dtype=np.int64)
        lat = group_latencies(blocks, 64, ExtendTimings())
        # 5-cycle fill + the longest run in the group.
        assert lat.tolist() == [5 + 3]

    def test_zero_block_group_still_pays_fill(self):
        lat = group_latencies(np.zeros(4, dtype=np.int64), 64, ExtendTimings())
        assert lat.tolist() == [5 + 1]

    def test_multiple_groups(self):
        blocks = np.array([1] * 64 + [4] * 10, dtype=np.int64)
        lat = group_latencies(blocks, 64, ExtendTimings())
        assert lat.tolist() == [6, 9]

    def test_group_size_respected(self):
        blocks = np.array([2, 2, 5, 1], dtype=np.int64)
        lat = group_latencies(blocks, 2, ExtendTimings())
        assert lat.tolist() == [7, 10]

    def test_custom_timings(self):
        t = ExtendTimings(pipeline_fill=3, cycles_per_block=2)
        lat = group_latencies(np.array([4], dtype=np.int64), 64, t)
        assert lat.tolist() == [3 + 8]


class TestExtendStage:
    def test_cycles_accumulate(self):
        a = "ACGT" * 20
        aw = sequence_words(a, sentinel=0xFF)
        bw = sequence_words(a, sentinel=0xFE)
        stage = ExtendStage(group_size=64)
        offs = np.zeros(1, dtype=np.int64)
        out, cycles = stage.run(aw, bw, 80, 80, offs, 0)
        assert out.offsets[0] == 80
        assert int(out.blocks.sum()) == 5  # ceil(80/16) blocks
        assert cycles == 5 + 5
        assert out.matches == 80


class TestComputeStage:
    def _null(self, width):
        return np.full(width, NULL_OFFSET, dtype=np.int64)

    def test_group_count_cycles(self):
        stage = ComputeStage(group_size=64, emit_origins=False)
        width = 130  # 3 groups of 64
        ks = np.arange(-65, 65, dtype=np.int64)
        m_x = np.zeros(width, dtype=np.int64)
        out, cycles = stage.run(
            m_x, self._null(width), self._null(width), self._null(width),
            self._null(width), ks, 1000, 1000,
        )
        assert cycles == 3 * 3 + 2
        assert len(out.m) == len(out.i) == len(out.d) == width

    def test_origins_emitted_when_requested(self):
        stage = ComputeStage(group_size=64, emit_origins=True)
        ks = np.zeros(1, dtype=np.int64)
        out, _ = stage.run(
            np.array([2], dtype=np.int64), self._null(1), self._null(1),
            self._null(1), self._null(1), ks, 10, 10,
        )
        assert out.origins is not None

    def test_custom_timings(self):
        t = ComputeTimings(cycles_per_group=5, step_overhead=0)
        stage = ComputeStage(group_size=32, emit_origins=False, timings=t)
        ks = np.arange(33, dtype=np.int64)
        _, cycles = stage.run(
            np.zeros(33, dtype=np.int64), self._null(33), self._null(33),
            self._null(33), self._null(33), ks, 100, 100,
        )
        assert cycles == 2 * 5
