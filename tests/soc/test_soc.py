"""Tests for the SoC top level and both execution flows."""

import pytest

from repro.align import swg_align
from repro.soc import Soc
from repro.wfasic import WfasicConfig
from repro.workloads import PairGenerator, SequencePair, make_input_set

from tests.util import assert_valid_cigar


class TestAcceleratedFlow:
    def test_scores_and_success(self):
        pairs = make_input_set("100-10%", 5)
        soc = Soc(WfasicConfig.paper_default(backtrace=False))
        out = soc.run_accelerated(pairs)
        for p in pairs:
            assert out.success[p.pair_id]
            assert out.scores[p.pair_id] == swg_align(p.pattern, p.text).score
            assert out.cigars[p.pair_id] is None  # backtrace off

    def test_backtrace_flow_produces_cigars(self):
        pairs = make_input_set("100-10%", 4)
        soc = Soc(WfasicConfig.paper_default(backtrace=True))
        out = soc.run_accelerated(pairs)
        for p in pairs:
            assert_valid_cigar(
                out.cigars[p.pair_id], p.pattern, p.text,
                soc.config.penalties, out.scores[p.pair_id],
            )
        assert out.cpu_backtrace_cycles > 0
        assert out.cpu_driver_cycles > 0
        assert out.total_cycles == (
            out.cpu_driver_cycles
            + out.accelerator_cycles
            + out.cpu_backtrace_cycles
        )

    def test_backtrace_off_no_cpu_cost(self):
        pairs = make_input_set("100-5%", 3)
        soc = Soc(WfasicConfig.paper_default(backtrace=False))
        out = soc.run_accelerated(pairs)
        assert out.cpu_backtrace_cycles == 0
        assert out.backtrace_work is None

    def test_multi_aligner_uses_separation_by_default(self):
        pairs = make_input_set("100-10%", 6)
        soc = Soc(WfasicConfig(num_aligners=2, backtrace=True))
        out = soc.run_accelerated(pairs)
        assert out.backtrace_work.separation_bytes > 0
        for p in pairs:
            assert out.success[p.pair_id]

    def test_single_aligner_skips_separation_by_default(self):
        pairs = make_input_set("100-10%", 4)
        soc = Soc(WfasicConfig.paper_default(backtrace=True))
        out = soc.run_accelerated(pairs)
        assert out.backtrace_work.separation_bytes == 0

    def test_forced_separation_on_single_aligner(self):
        pairs = make_input_set("100-10%", 4)
        soc = Soc(WfasicConfig.paper_default(backtrace=True))
        out = soc.run_accelerated(pairs, separate=True)
        assert out.backtrace_work.separation_bytes > 0

    def test_back_to_back_batches(self):
        soc = Soc(WfasicConfig.paper_default(backtrace=False))
        for _ in range(3):
            pairs = make_input_set("100-5%", 2)
            out = soc.run_accelerated(pairs)
            assert all(out.success.values())

    @pytest.mark.parametrize("backtrace", [False, True])
    def test_over_long_read_is_answered_unsupported(self, backtrace):
        """A read over ``max_read_len`` clears that pair's Success; the
        other pairs are answered as in a batch without it (§4.2)."""
        config = WfasicConfig(max_read_len=64, backtrace=backtrace)
        short = PairGenerator(length=40, error_rate=0.1, seed=3).batch(4)
        long = PairGenerator(length=100, error_rate=0.1, seed=4).pair()
        pairs = short + [SequencePair(long.pattern, long.text, pair_id=99)]
        out = Soc(config).run_accelerated(pairs)
        alone = Soc(config).run_accelerated(short)
        assert (out.success[99], out.scores[99], out.cigars[99]) == (False, 0, None)
        for p in short:
            assert out.success[p.pair_id]
            assert out.scores[p.pair_id] == alone.scores[p.pair_id]
            assert out.cigars[p.pair_id] == alone.cigars[p.pair_id]


class TestCpuFlow:
    def test_scores_exact(self):
        pairs = make_input_set("100-10%", 5)
        soc = Soc()
        out = soc.run_cpu(pairs)
        for p in pairs:
            assert out.scores[p.pair_id] == swg_align(p.pattern, p.text).score

    def test_vector_faster(self):
        pairs = make_input_set("1K-5%", 2)
        soc = Soc()
        scalar = soc.run_cpu(pairs, vector=False)
        vec = soc.run_cpu(pairs, vector=True)
        assert vec.cycles < scalar.cycles
        assert scalar.scores == vec.scores

    def test_per_pair_sum(self):
        pairs = make_input_set("100-5%", 4)
        out = Soc().run_cpu(pairs)
        assert sum(out.per_pair_cycles.values()) == out.cycles


class TestSpeedupBands:
    """The headline result: speedups within the paper's reported bands."""

    def test_short_reads_speedup_band(self):
        pairs = make_input_set("100-5%", 6)
        soc = Soc(WfasicConfig.paper_default(backtrace=False))
        acc = soc.run_accelerated(pairs, backtrace=False)
        cpu = soc.run_cpu(pairs)
        speedup = cpu.cycles / acc.total_cycles
        # Paper: 143x at 100-5%.  Accept a band around it.
        assert 70 < speedup < 300

    def test_speedup_grows_with_length(self):
        soc = Soc(WfasicConfig.paper_default(backtrace=False))
        speedups = []
        for name, n in (("100-5%", 4), ("1K-5%", 2)):
            pairs = make_input_set(name, n)
            acc = soc.run_accelerated(pairs, backtrace=False)
            cpu = soc.run_cpu(pairs)
            speedups.append(cpu.cycles / acc.total_cycles)
        assert speedups[1] > speedups[0]

    def test_backtrace_speedup_lower_than_no_backtrace(self):
        pairs = make_input_set("100-10%", 4)
        soc_n = Soc(WfasicConfig.paper_default(backtrace=False))
        soc_b = Soc(WfasicConfig.paper_default(backtrace=True))
        cpu = soc_n.run_cpu(pairs)
        s_n = cpu.cycles / soc_n.run_accelerated(pairs).total_cycles
        s_b = cpu.cycles / soc_b.run_accelerated(pairs).total_cycles
        assert s_b < s_n
