"""Tests for the Aligner module: hardware WFA vs the software oracle."""

import random

import numpy as np
import pytest

from repro.align import AffinePenalties, swg_align
from repro.wfasic import Aligner, WfasicConfig
from repro.wfasic.extractor import Extractor
from repro.wfasic.packets import (
    encode_pair_record,
    round_up_read_len,
    unpack_origin_codes,
)
from repro.workloads import make_input_set

from tests.util import random_pair


def job_for(pattern: str, text: str, max_read_len: int | None = None, aid: int = 0):
    mrl = max_read_len or round_up_read_len(max(len(pattern), len(text), 1))
    rec = encode_pair_record(aid, pattern, text, mrl)
    return Extractor(mrl).extract(rec)


class TestScoresMatchOracle:
    def test_small_random_pairs(self):
        rng = random.Random(61)
        aligner = Aligner(WfasicConfig.paper_default(backtrace=False))
        for _ in range(40):
            a, b = random_pair(rng, rng.randint(1, 60), 0.3)
            run = aligner.run(job_for(a, b))
            assert run.success
            assert run.score == swg_align(a, b).score

    def test_paper_input_sets_small_sample(self):
        aligner = Aligner(WfasicConfig.paper_default(backtrace=False))
        for name in ("100-5%", "100-10%"):
            for pair in make_input_set(name, 4):
                run = aligner.run(job_for(pair.pattern, pair.text))
                assert run.success
                assert run.score == swg_align(pair.pattern, pair.text).score

    def test_identical_pair_score_zero(self):
        aligner = Aligner(WfasicConfig.paper_default(backtrace=False))
        run = aligner.run(job_for("ACGT" * 10, "ACGT" * 10))
        assert run.success and run.score == 0
        assert run.stats.wavefront_steps == 1  # just the s=0 extension

    def test_empty_vs_nonempty(self):
        aligner = Aligner(WfasicConfig.paper_default(backtrace=False))
        run = aligner.run(job_for("", "ACGTACGTACGTACGT"))
        assert run.success
        assert run.score == 6 + 2 * 16

    def test_other_parallel_section_counts(self):
        rng = random.Random(62)
        for n_ps in (16, 32, 64, 128):
            aligner = Aligner(
                WfasicConfig(parallel_sections=n_ps, backtrace=False)
            )
            a, b = random_pair(rng, 50, 0.2)
            run = aligner.run(job_for(a, b))
            assert run.score == swg_align(a, b).score


class TestHardwareLimits:
    def test_score_limit_clears_success(self):
        # 30 mismatches = score 120 > Score_max for k_max = 10 (= 24).
        cfg = WfasicConfig(k_max=10, backtrace=False)
        run = Aligner(cfg).run(job_for("A" * 30, "T" * 30))
        assert not run.success
        assert run.score == 0

    def test_score_exactly_at_limit_succeeds(self):
        # k_max = 58 -> Score_max = 120 = the alignment score.
        cfg = WfasicConfig(k_max=58, backtrace=False)
        run = Aligner(cfg).run(job_for("A" * 30, "T" * 30))
        assert run.success and run.score == 120

    def test_kmax_band_clamp_still_exact(self):
        # A pair whose optimal path stays near the main diagonal must be
        # exact even with a tight k_max.
        rng = random.Random(63)
        a, b = random_pair(rng, 80, 0.1)
        ref = swg_align(a, b).score
        cfg = WfasicConfig(k_max=200, backtrace=False)
        run = Aligner(cfg).run(job_for(a, b))
        assert run.success and run.score == ref

    def test_final_diagonal_outside_kmax_fails(self):
        cfg = WfasicConfig(k_max=4, backtrace=False)
        run = Aligner(cfg).run(job_for("A" * 2, "A" * 30))
        assert not run.success

    def test_unsupported_job_skipped(self):
        cfg = WfasicConfig.paper_default(backtrace=False)
        job = job_for("ACGN", "ACGT", max_read_len=16, aid=3)
        run = Aligner(cfg).run(job)
        assert not run.success
        assert run.alignment_id == 3
        assert run.stats.wavefront_steps == 0


class TestCycleModel:
    def test_cycles_grow_with_errors(self):
        aligner = Aligner(WfasicConfig.paper_default(backtrace=False))
        rng = random.Random(64)
        a, b_low = random_pair(rng, 200, 0.02)
        _, b_high = random_pair(rng, 200, 0.0)  # placeholder, regenerate
        a2, b_high = random_pair(rng, 200, 0.25)
        low = aligner.run(job_for(a, b_low)).cycles
        high = aligner.run(job_for(a2, b_high)).cycles
        assert high > low

    def test_cycles_scale_with_parallel_sections(self):
        # Halving the sections roughly doubles group counts for wide
        # wavefronts -> more cycles.
        rng = random.Random(65)
        a, b = random_pair(rng, 400, 0.15)
        wide = Aligner(WfasicConfig(parallel_sections=64, backtrace=False))
        narrow = Aligner(WfasicConfig(parallel_sections=16, backtrace=False))
        c_wide = wide.run(job_for(a, b)).cycles
        c_narrow = narrow.run(job_for(a, b)).cycles
        assert c_narrow > c_wide

    def test_short_reads_insensitive_to_sections(self):
        # §5.4: "for short reads, the wavefront matrix is very small and
        # most of the parallel sections are idle" — 64 vs 32 PS is ~same.
        pair = make_input_set("100-5%", 1)[0]
        job = job_for(pair.pattern, pair.text)
        c64 = Aligner(WfasicConfig(parallel_sections=64, backtrace=False)).run(job).cycles
        c32 = Aligner(WfasicConfig(parallel_sections=32, backtrace=False)).run(job).cycles
        assert abs(c64 - c32) / c64 < 0.25

    def test_stats_populated(self):
        rng = random.Random(66)
        a, b = random_pair(rng, 100, 0.1)
        run = Aligner(WfasicConfig.paper_default(backtrace=False)).run(job_for(a, b))
        st = run.stats
        assert st.wavefront_steps > 0
        assert st.cells_processed > 0
        assert st.compute_cycles > 0 and st.extend_cycles > 0
        assert st.compute_cycles + st.extend_cycles <= run.cycles


class TestBacktraceEmission:
    def test_blocks_only_when_enabled(self):
        rng = random.Random(67)
        a, b = random_pair(rng, 60, 0.2)
        on = Aligner(WfasicConfig.paper_default(backtrace=True)).run(job_for(a, b))
        off = Aligner(WfasicConfig.paper_default(backtrace=False)).run(job_for(a, b))
        assert on.bt_payload and len(on.bt_payload) % 40 == 0
        assert off.bt_payload is None

    def test_block_count_matches_layout(self):
        from repro.wfasic import StepIndex

        rng = random.Random(68)
        a, b = random_pair(rng, 120, 0.15)
        cfg = WfasicConfig.paper_default(backtrace=True)
        run = Aligner(cfg).run(job_for(a, b))
        index = StepIndex(cfg, len(a), len(b), run.score)
        assert len(run.bt_payload) == cfg.bt_block_bytes * index.total_blocks

    @pytest.mark.parametrize("n_ps", [16, 32, 64])
    def test_payload_unpacks_to_each_steps_codes(self, monkeypatch, n_ps):
        # Every step's codes, zero-padded to whole groups of n_ps cells,
        # back to back: what the run's one buffer must unpack to.
        import repro.wfasic.aligner as aligner_module

        steps = []
        kernel = aligner_module.compute_kernel

        def spy(*args, **kwargs):
            out = kernel(*args, **kwargs)
            steps.append(out.origins)
            return out

        monkeypatch.setattr(aligner_module, "compute_kernel", spy)
        rng = random.Random(70)
        a, b = random_pair(rng, 150, 0.15)
        cfg = WfasicConfig(parallel_sections=n_ps, backtrace=True)
        payload = Aligner(cfg).run(job_for(a, b)).bt_payload
        expected = np.concatenate(
            [np.pad(c, (0, -len(c) % n_ps)) for c in steps]
        )
        block = cfg.bt_block_bytes
        assert len(payload) == block * len(expected) // n_ps
        unpacked = np.concatenate(
            [
                unpack_origin_codes(bytes(payload[i : i + block]), n_ps)
                for i in range(0, len(payload), block)
            ]
        )
        assert len(steps) > 10 and (unpacked == expected).all()

    def test_same_score_with_and_without_backtrace(self):
        rng = random.Random(69)
        for _ in range(10):
            a, b = random_pair(rng, 80, 0.25)
            on = Aligner(WfasicConfig.paper_default(backtrace=True)).run(job_for(a, b))
            off = Aligner(WfasicConfig.paper_default(backtrace=False)).run(job_for(a, b))
            assert on.score == off.score


class TestOtherPenalties:
    @pytest.mark.parametrize(
        "pen", [AffinePenalties(2, 3, 1), AffinePenalties(5, 0, 3)]
    )
    def test_exactness(self, pen):
        rng = random.Random(70)
        cfg = WfasicConfig(penalties=pen, backtrace=False)
        aligner = Aligner(cfg)
        for _ in range(15):
            a, b = random_pair(rng, 50, 0.3)
            run = aligner.run(job_for(a, b))
            assert run.score == swg_align(a, b, pen).score
