"""Unit tests for the scalar WFA aligner (Eq. 3/4)."""

import random

import pytest

from repro.align import (
    AffinePenalties,
    DEFAULT_PENALTIES,
    WfaAligner,
    swg_align,
    wfa_align,
    wfa_score,
)

from tests.util import assert_valid_cigar, mutate, random_pair, random_seq


class TestBasicCases:
    def test_identical(self):
        r = wfa_align("ACGTACGT", "ACGTACGT")
        assert r.score == 0
        assert r.cigar.ops == "M" * 8

    def test_single_mismatch(self):
        r = wfa_align("ACGT", "AGGT")
        assert r.score == 4
        assert r.cigar.ops == "MXMM"

    def test_single_insertion(self):
        r = wfa_align("ACGT", "ACGTT")
        assert r.score == 8
        assert r.cigar.counts()["I"] == 1

    def test_single_deletion(self):
        r = wfa_align("ACGTT", "ACGT")
        assert r.score == 8
        assert r.cigar.counts()["D"] == 1

    def test_empty_both(self):
        r = wfa_align("", "")
        assert r.score == 0
        assert len(r.cigar) == 0

    def test_empty_pattern(self):
        r = wfa_align("", "ACG")
        assert r.score == DEFAULT_PENALTIES.gap_cost(3)
        assert r.cigar.ops == "III"

    def test_empty_text(self):
        r = wfa_align("ACG", "")
        assert r.score == DEFAULT_PENALTIES.gap_cost(3)
        assert r.cigar.ops == "DDD"

    def test_gap_affine_preference(self):
        # One long gap, not many short ones.
        r = wfa_align("AAATTTAAA", "AAAAAA")
        assert r.score == 6 + 3 * 2
        assert r.cigar.num_gap_opens() == 1


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_scores_match_swg_related_pairs(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            a, b = random_pair(rng, rng.randint(0, 60), rng.choice([0.0, 0.1, 0.3]))
            assert wfa_score(a, b) == swg_align(a, b).score

    def test_scores_match_swg_unrelated_pairs(self):
        rng = random.Random(99)
        for _ in range(40):
            a = random_seq(rng, rng.randint(0, 40))
            b = random_seq(rng, rng.randint(0, 40))
            assert wfa_score(a, b) == swg_align(a, b).score

    @pytest.mark.parametrize(
        "penalties",
        [
            AffinePenalties(4, 6, 2),
            AffinePenalties(2, 3, 1),
            AffinePenalties(1, 4, 1),
            AffinePenalties(5, 0, 3),  # zero opening surcharge
            AffinePenalties(7, 11, 3),  # coprime
        ],
    )
    def test_scores_match_swg_other_penalties(self, penalties):
        rng = random.Random(hash(penalties) & 0xFFFF)
        for _ in range(25):
            a, b = random_pair(rng, rng.randint(0, 40), 0.25)
            assert (
                wfa_score(a, b, penalties) == swg_align(a, b, penalties).score
            ), (a, b)

    def test_cigar_is_optimal(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = random_pair(rng, rng.randint(0, 50), 0.2)
            r = wfa_align(a, b)
            assert_valid_cigar(r.cigar, a, b, DEFAULT_PENALTIES, r.score)


class TestScoreOnlyMode:
    def test_no_cigar(self):
        r = WfaAligner(keep_backtrace=False).align("ACGT", "AGGT")
        assert r.cigar is None
        assert r.score == 4

    def test_same_score_as_backtrace_mode(self):
        rng = random.Random(21)
        for _ in range(25):
            a, b = random_pair(rng, rng.randint(0, 60), 0.2)
            s1 = WfaAligner(keep_backtrace=False).align(a, b).score
            s2 = WfaAligner(keep_backtrace=True).align(a, b).score
            assert s1 == s2


class TestWorkCounters:
    def test_identical_pair_minimal_work(self):
        r = wfa_align("ACGT" * 10, "ACGT" * 10)
        assert r.work.wavefront_steps == 0
        assert r.work.extend_matches == 40
        assert r.work.cells_computed == 0

    def test_counters_grow_with_errors(self):
        rng = random.Random(31)
        a = random_seq(rng, 200)
        low = wfa_align(a, mutate(rng, a, 0.02)).work
        high = wfa_align(a, mutate(rng, a, 0.2)).work
        assert high.cells_computed > low.cells_computed
        assert high.wavefront_steps > low.wavefront_steps

    def test_merge(self):
        rng = random.Random(32)
        a, b = random_pair(rng, 50, 0.1)
        r1 = wfa_align(a, b)
        r2 = wfa_align(a, b)
        total = r1.work
        total.merge(r2.work)
        assert total.cells_computed == 2 * r2.work.cells_computed
        assert total.peak_wavefront_width == r2.work.peak_wavefront_width
