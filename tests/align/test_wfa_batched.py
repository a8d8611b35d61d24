"""Unit tests for the cross-pair batched WFA aligner."""

import random

import numpy as np
import pytest

from repro.align import (
    AffinePenalties,
    BatchedWfaAligner,
    StageProfiler,
    WfaAligner,
    wfa_align_batched,
)
from tests.util import assert_valid_cigar, random_pair

PEN = AffinePenalties(4, 6, 2)


def scalar_results(pairs, penalties=PEN, **kw):
    aligner = WfaAligner(penalties, **kw)
    return [aligner.align(a, b) for a, b in pairs]


class TestBatchedMatchesScalar:
    def test_mixed_batch_scores_cigars_and_counters(self):
        rng = random.Random(3)
        pairs = [
            random_pair(rng, length, rate)
            for length in (0, 1, 3, 17, 64, 150)
            for rate in (0.0, 0.05, 0.25)
        ]
        batched = BatchedWfaAligner(PEN).align_batch(pairs)
        scalar = scalar_results(pairs)
        for (a, b), br, sr in zip(pairs, batched, scalar):
            assert br.score == sr.score
            assert br.cigar.compact() == sr.cigar.compact()
            assert_valid_cigar(br.cigar, a, b, PEN, br.score)
            # The batched path mirrors the scalar recurrence row by row,
            # so even the abstract work accounting is bit-identical.
            assert br.work == sr.work

    def test_single_pair_convenience(self):
        res = BatchedWfaAligner(PEN).align("ACGT", "AGGT")
        ref = WfaAligner(PEN).align("ACGT", "AGGT")
        assert res.score == ref.score
        assert res.cigar.compact() == ref.cigar.compact()

    def test_one_shot_helper(self):
        results = wfa_align_batched([("ACGT", "ACGT"), ("AAAA", "AATA")])
        assert [r.score for r in results] == [0, 4]

    def test_degenerate_shapes(self):
        pairs = [
            ("", ""),
            ("", "ACGT"),
            ("ACGT", ""),
            ("A", "T"),
            ("A" * 40, "T" * 40),
            ("ACGT" * 10, "ACGT" * 10),
        ]
        batched = BatchedWfaAligner(PEN).align_batch(pairs)
        for (a, b), br, sr in zip(pairs, batched, scalar_results(pairs)):
            assert br.score == sr.score
            assert br.cigar.compact() == sr.cigar.compact()

    def test_empty_batch(self):
        assert BatchedWfaAligner(PEN).align_batch([]) == []

    @pytest.mark.parametrize(
        "penalties",
        [AffinePenalties(2, 3, 1), AffinePenalties(5, 0, 3)],
        ids=str,
    )
    def test_other_penalty_sets(self, penalties):
        rng = random.Random(11)
        pairs = [random_pair(rng, length, 0.15) for length in (5, 33, 90)]
        batched = BatchedWfaAligner(penalties).align_batch(pairs)
        scalar = scalar_results(pairs, penalties)
        for br, sr in zip(batched, scalar):
            assert br.score == sr.score
            assert br.cigar.compact() == sr.cigar.compact()


class TestRetirement:
    def test_results_in_input_order_with_mixed_convergence(self):
        # Deliberately interleave trivially-finishing pairs (score 0,
        # retire at s=0) with increasingly hard ones so rows retire out
        # of input order and the active set compacts repeatedly.
        rng = random.Random(21)
        easy = [random_pair(rng, 50, 0.0) for _ in range(3)]
        hard = [random_pair(rng, 120, 0.25) for _ in range(3)]
        pairs = [x for pair in zip(easy, hard) for x in pair]
        batched = BatchedWfaAligner(PEN).align_batch(pairs)
        for (a, b), br, sr in zip(pairs, batched, scalar_results(pairs)):
            assert br.score == sr.score
            assert br.cigar.compact() == sr.cigar.compact()

    def test_batch_composition_does_not_change_results(self):
        # Retiring order is a pure implementation detail: any permutation
        # of the batch — and a batch of one — must produce identical
        # per-pair results.
        rng = random.Random(5)
        pairs = [
            random_pair(rng, length, rate)
            for length, rate in [(10, 0.3), (80, 0.1), (200, 0.02), (40, 0.0)]
        ]
        baseline = {
            pair: (res.score, res.cigar.compact())
            for pair, res in zip(pairs, BatchedWfaAligner(PEN).align_batch(pairs))
        }
        for seed in (1, 2, 3):
            perm = pairs[:]
            random.Random(seed).shuffle(perm)
            for pair, res in zip(perm, BatchedWfaAligner(PEN).align_batch(perm)):
                assert (res.score, res.cigar.compact()) == baseline[pair]
        for pair in pairs:
            res = BatchedWfaAligner(PEN).align_batch([pair])[0]
            assert (res.score, res.cigar.compact()) == baseline[pair]


class TestOptions:
    def test_score_only_mode(self):
        rng = random.Random(8)
        pairs = [random_pair(rng, 60, 0.1) for _ in range(5)]
        results = BatchedWfaAligner(PEN, keep_backtrace=False).align_batch(pairs)
        scalar = scalar_results(pairs)
        assert [r.score for r in results] == [r.score for r in scalar]
        assert all(r.cigar is None for r in results)

    def test_profiler_records_stages(self):
        prof = StageProfiler()
        aligner = BatchedWfaAligner(PEN, profiler=prof)
        aligner.align_batch([("ACGTACGT", "ACGAACGT")])
        stages = prof.as_dict()
        for stage in ("pack", "compute", "extend", "backtrace", "retire"):
            assert stage in stages, stages
            assert stages[stage]["calls"] >= 1


class TestLongerReads:
    @pytest.mark.slow
    def test_long_read_batch(self):
        rng = random.Random(99)
        pairs = [
            random_pair(rng, 600, 0.2),
            random_pair(rng, 1200, 0.05),
            random_pair(rng, 2000, 0.01),
            random_pair(rng, 0, 0.0),
        ]
        batched = BatchedWfaAligner(PEN).align_batch(pairs)
        for (a, b), br, sr in zip(pairs, batched, scalar_results(pairs)):
            assert br.score == sr.score
            assert_valid_cigar(br.cigar, a, b, PEN, br.score)
            assert br.cigar.compact() == sr.cigar.compact()
