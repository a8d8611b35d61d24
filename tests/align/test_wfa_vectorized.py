"""Equivalence tests: vectorised WFA vs scalar WFA vs the SWG oracle."""

import random

import pytest

from repro.align import (
    AffinePenalties,
    DEFAULT_PENALTIES,
    VectorizedWfaAligner,
    WfaAligner,
    swg_align,
    wfa_align_vectorized,
)

from tests.util import assert_valid_cigar, mutate, random_pair, random_seq


class TestBasicCases:
    def test_identical(self):
        r = wfa_align_vectorized("ACGT" * 8, "ACGT" * 8)
        assert r.score == 0

    def test_empty_cases(self):
        assert wfa_align_vectorized("", "").score == 0
        assert wfa_align_vectorized("", "ACG").score == DEFAULT_PENALTIES.gap_cost(3)
        assert wfa_align_vectorized("ACG", "").score == DEFAULT_PENALTIES.gap_cost(3)

    def test_single_errors(self):
        assert wfa_align_vectorized("ACGT", "AGGT").score == 4
        assert wfa_align_vectorized("ACGT", "ACGTT").score == 8


class TestEquivalenceWithScalar:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_scores_and_work(self, seed):
        rng = random.Random(seed * 101)
        for _ in range(30):
            a, b = random_pair(rng, rng.randint(0, 80), rng.choice([0.05, 0.2, 0.5]))
            rs = WfaAligner().align(a, b)
            rv = VectorizedWfaAligner().align(a, b)
            assert rs.score == rv.score
            # Identical algorithms must do identical abstract work.
            assert rs.work.cells_computed == rv.work.cells_computed
            assert rs.work.extend_comparisons == rv.work.extend_comparisons
            assert rs.work.extend_matches == rv.work.extend_matches
            assert rs.work.wavefront_steps == rv.work.wavefront_steps

    def test_same_cigars(self):
        # Backtraces share the same tie-breaking, so CIGARs are identical.
        rng = random.Random(77)
        for _ in range(30):
            a, b = random_pair(rng, rng.randint(0, 60), 0.25)
            cs = WfaAligner().align(a, b).cigar
            cv = VectorizedWfaAligner().align(a, b).cigar
            assert cs.ops == cv.ops


class TestAgainstOracle:
    def test_related_pairs(self):
        rng = random.Random(88)
        for _ in range(40):
            a, b = random_pair(rng, rng.randint(0, 100), 0.15)
            rv = wfa_align_vectorized(a, b)
            assert rv.score == swg_align(a, b).score
            assert_valid_cigar(rv.cigar, a, b, DEFAULT_PENALTIES, rv.score)

    def test_unrelated_pairs(self):
        rng = random.Random(89)
        for _ in range(30):
            a = random_seq(rng, rng.randint(0, 60))
            b = random_seq(rng, rng.randint(0, 60))
            assert wfa_align_vectorized(a, b).score == swg_align(a, b).score

    @pytest.mark.parametrize(
        "penalties",
        [AffinePenalties(2, 3, 1), AffinePenalties(5, 0, 3), AffinePenalties(7, 11, 3)],
    )
    def test_other_penalties(self, penalties):
        rng = random.Random(90)
        for _ in range(20):
            a, b = random_pair(rng, rng.randint(0, 50), 0.3)
            assert (
                wfa_align_vectorized(a, b, penalties).score
                == swg_align(a, b, penalties).score
            )


class TestModes:
    def test_score_only(self):
        r = VectorizedWfaAligner(keep_backtrace=False).align("ACGT", "AGGT")
        assert r.cigar is None and r.score == 4


class TestMediumScale:
    def test_1kbp_matches_oracle(self):
        rng = random.Random(91)
        a = random_seq(rng, 1000)
        b = mutate(rng, a, 0.05)
        rv = VectorizedWfaAligner().align(a, b)
        assert_valid_cigar(rv.cigar, a, b, DEFAULT_PENALTIES, rv.score)
        assert rv.score == swg_align(a, b).score

    @pytest.mark.slow
    def test_10kbp_score_only(self):
        rng = random.Random(92)
        a = random_seq(rng, 10_000)
        b = mutate(rng, a, 0.10)
        r = VectorizedWfaAligner(keep_backtrace=False).align(a, b)
        # Score is bounded by per-error worst cost and is > 0.
        assert 0 < r.score
        assert r.work.wavefront_steps > 1000
