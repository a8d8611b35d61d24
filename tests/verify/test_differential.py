"""Differential test harness: every engine must agree with the oracle.

Seeded random pairs sweeping read length (0-2000), error rate (1-20 %)
and three penalty sets, asserting that

* the scalar WFA, the vectorised WFA and the SWG DP oracle report the
  same score,
* both WFA CIGARs are valid alignments that re-score to the reported
  score (the :func:`tests.util.assert_valid_cigar` contract),
* the cross-pair batched WFA reproduces the scalar results — score and
  CIGAR — pair for pair on seeded mixed-length batches, regardless of
  the order in which pairs retire from the lockstep batch,
* every batch-engine backend (``batched``, ``swg`` and the ``wfasic``
  cycle simulator) reproduces the oracle scores through the engine path,
  and the ``batched`` backend reproduces the scalar aligner's score,
  CIGAR and peak wavefront bytes, in-process and on two workers.

The 2000 bp sweep drags the scalar reference through large wavefronts
and is marked slow; the fast grid keeps the inner loop under a second.
"""

from __future__ import annotations

import random

import pytest

from repro.align import (
    AffinePenalties,
    BatchedWfaAligner,
    WfaAligner,
    swg_align,
    wfa_align_vectorized,
)
from repro.engine import align_pairs, backend_names
from tests.util import assert_valid_cigar, random_pair, random_seq

PENALTY_SETS = [
    AffinePenalties(4, 6, 2),  # the paper's configuration
    AffinePenalties(2, 3, 1),  # odd granularity (score step 1)
    AffinePenalties(5, 0, 3),  # zero gap-open (linear-like affine)
]

ERROR_RATES = [0.01, 0.05, 0.20]


def _check_pair(a: str, b: str, penalties: AffinePenalties) -> None:
    oracle = swg_align(a, b, penalties)
    scalar = WfaAligner(penalties).align(a, b)
    vector = wfa_align_vectorized(a, b, penalties)

    assert scalar.score == oracle.score, (
        f"scalar {scalar.score} != oracle {oracle.score} "
        f"(|a|={len(a)}, |b|={len(b)}, pen={penalties})"
    )
    assert vector.score == oracle.score, (
        f"vector {vector.score} != oracle {oracle.score} "
        f"(|a|={len(a)}, |b|={len(b)}, pen={penalties})"
    )
    assert_valid_cigar(scalar.cigar, a, b, penalties, scalar.score)
    assert_valid_cigar(vector.cigar, a, b, penalties, vector.score)
    assert_valid_cigar(oracle.cigar, a, b, penalties, oracle.score)


class TestSoftwareEnginesAgree:
    """Scalar WFA == vectorized WFA == SWG oracle, CIGARs re-score."""

    @pytest.mark.parametrize("penalties", PENALTY_SETS, ids=str)
    def test_fast_grid(self, penalties):
        rng = random.Random(1234)
        for length in (0, 1, 2, 13, 64, 150, 300):
            for rate in ERROR_RATES:
                a, b = random_pair(rng, length, rate)
                _check_pair(a, b, penalties)

    @pytest.mark.parametrize("penalties", PENALTY_SETS, ids=str)
    def test_degenerate_shapes(self, penalties):
        rng = random.Random(99)
        seq = random_seq(rng, 40)
        cases = [
            ("", ""),
            ("", seq),
            (seq, ""),
            (seq, seq),
            (seq, random_seq(rng, 40)),  # unrelated, same length
            (seq, random_seq(rng, 7)),  # wildly different lengths
            ("A", "T"),
            ("A" * 30, "T" * 30),  # all-mismatch
        ]
        for a, b in cases:
            _check_pair(a, b, penalties)

    @pytest.mark.slow
    @pytest.mark.parametrize("penalties", PENALTY_SETS, ids=str)
    def test_long_reads(self, penalties):
        rng = random.Random(4321)
        for length, rate in ((600, 0.20), (1200, 0.05), (2000, 0.01)):
            a, b = random_pair(rng, length, rate)
            _check_pair(a, b, penalties)


class TestBatchedAlignerAgrees:
    """Batched lockstep WFA == scalar oracle, pair for pair.

    The batch is deliberately heterogeneous (lengths 0-300 fast /
    0-2000 slow, all error rates mixed into one batch) so pairs converge
    at very different scores and the retire-and-compact path runs many
    times within a single ``align_batch`` call.
    """

    def _check_batch(self, pairs, penalties):
        batched = BatchedWfaAligner(penalties).align_batch(pairs)
        for (a, b), res in zip(pairs, batched):
            oracle = swg_align(a, b, penalties)
            assert res.score == oracle.score, (
                f"batched {res.score} != oracle {oracle.score} "
                f"(|a|={len(a)}, |b|={len(b)}, pen={penalties})"
            )
            assert_valid_cigar(res.cigar, a, b, penalties, res.score)

    @pytest.mark.parametrize("penalties", PENALTY_SETS, ids=str)
    def test_fast_mixed_batch(self, penalties):
        rng = random.Random(2024)
        pairs = [
            random_pair(rng, length, rate)
            for length in (0, 1, 2, 13, 64, 150, 300)
            for rate in ERROR_RATES
        ]
        self._check_batch(pairs, penalties)

    @pytest.mark.slow
    @pytest.mark.parametrize("penalties", PENALTY_SETS, ids=str)
    def test_long_mixed_batch(self, penalties):
        rng = random.Random(4202)
        pairs = [
            random_pair(rng, length, rate)
            for length, rate in (
                (0, 0.0), (7, 0.20), (600, 0.20), (1200, 0.05), (2000, 0.01),
            )
        ]
        self._check_batch(pairs, penalties)

    @pytest.mark.parametrize("penalties", PENALTY_SETS, ids=str)
    def test_retiring_order_is_immaterial(self, penalties):
        # Property: results depend only on the pair, never on the batch
        # composition or the order pairs retire in.  Shuffling a batch
        # reorders every compact step; a singleton batch removes
        # batching entirely; both must agree with the scalar aligner.
        rng = random.Random(31)
        pairs = [
            random_pair(rng, length, rate)
            for length in (0, 5, 40, 120, 250)
            for rate in ERROR_RATES
        ]
        scalar = {
            pair: WfaAligner(penalties).align(*pair) for pair in pairs
        }

        def check(batch):
            for pair, res in zip(
                batch, BatchedWfaAligner(penalties).align_batch(batch)
            ):
                ref = scalar[pair]
                assert res.score == ref.score
                assert res.cigar.compact() == ref.cigar.compact()

        check(pairs)
        for seed in (1, 2, 3):
            shuffled = pairs[:]
            random.Random(seed).shuffle(shuffled)
            check(shuffled)
        for pair in pairs[::5]:
            check([pair])


class TestEngineBackendsAgree:
    """Every registered engine backend reproduces the oracle scores."""

    @pytest.fixture(scope="class")
    def workload(self):
        rng = random.Random(777)
        pairs = [
            random_pair(rng, length, rate)
            for length in (0, 5, 40, 120)
            for rate in ERROR_RATES
        ]
        oracle = [swg_align(a, b).score for a, b in pairs]
        return pairs, oracle

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_backend_matches_oracle(self, backend, workload):
        pairs, oracle = workload
        res = align_pairs(pairs, backend=backend, backtrace=True, chunk_size=4)
        assert res.scores == oracle
        assert all(o.success for o in res.outcomes)
        for (a, b), outcome in zip(pairs, res.outcomes):
            # Backtrace on + success => a CIGAR is always present; the
            # empty alignment yields the (valid) empty string, not None.
            assert outcome.cigar is not None
            from repro.align import Cigar

            assert_valid_cigar(
                Cigar.from_compact(outcome.cigar), a, b,
                AffinePenalties(), outcome.score,
            )

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_backend_matches_oracle_parallel(self, backend, workload):
        pairs, oracle = workload
        res = align_pairs(pairs, backend=backend, workers=2, chunk_size=3)
        assert res.scores == oracle

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batched_matches_scalar_aligner(self, workers, workload):
        pairs, _ = workload
        res = align_pairs(
            pairs, backend="batched", backtrace=True, workers=workers,
            chunk_size=3,
        )
        reference = [WfaAligner().align(a, b) for a, b in pairs]
        assert [
            (o.score, o.cigar, o.peak_wavefront_bytes) for o in res.outcomes
        ] == [
            (r.score, r.cigar.compact(), r.work.peak_wavefront_bytes)
            for r in reference
        ]


class TestAgreedErrorSemantics:
    """All backends expose identical semantics for degenerate inputs.

    The engine applies the §4.2 Extractor policy at its boundary, so a
    pair no real accelerator could serve (an 'N' base) gets the same
    well-formed answer — success=False, score 0, unsupported_read — no
    matter which backend the batch was headed for, and lowercase input
    is normalized before any backend can see it.
    """

    N_PAIRS = [
        ("ACGNACGT", "ACGTACGT"),
        ("ACGT", "NNNN"),
        ("N", ""),
    ]

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_n_pairs_unsupported_everywhere(self, backend):
        res = align_pairs(self.N_PAIRS, backend=backend, backtrace=True)
        for outcome in res.outcomes:
            assert outcome.ok
            assert outcome.success is False
            assert outcome.score == 0
            assert outcome.cigar is None
            assert outcome.error_kind == "unsupported_read"
        assert res.report.rejected == len(self.N_PAIRS)
        assert res.report.errors == 0

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_lowercase_matches_uppercase_bit_for_bit(self, backend):
        rng = random.Random(4242)
        pairs = [random_pair(rng, 60, 0.1) for _ in range(4)]
        lower = [(a.lower(), b.lower()) for a, b in pairs]
        upper_res = align_pairs(pairs, backend=backend, backtrace=True)
        lower_res = align_pairs(lower, backend=backend, backtrace=True)
        for u, l in zip(upper_res.outcomes, lower_res.outcomes):
            assert (u.score, u.success, u.cigar) == (l.score, l.success, l.cigar)
