"""Tests for the engine's backend registry and the shipped backends."""

import random
import time

import pytest

from repro.align import Cigar, DEFAULT_PENALTIES, WfaAligner, swg_align
from repro.engine import (
    ERROR_UNSUPPORTED_READ,
    AlignmentBackend,
    align_pairs,
    backend_names,
    get_backend,
    register_backend,
)
from repro.engine.backends import _BACKENDS, SWG_MAX_CELLS, PairOutcome
from tests.util import assert_valid_cigar, random_pair


class TestRegistry:
    def test_shipped_backends_present(self):
        # One backend per concept: the software WFA, the DP oracle and
        # the accelerator simulator.
        assert backend_names() == ["batched", "swg", "wfasic"]

    def test_vectorized_aligner_is_not_a_backend(self):
        # ``batched`` is the one software WFA on the serving path; the
        # per-pair aligners are references, not backends.
        assert "vectorized" not in backend_names()
        assert "scalar" not in backend_names()

    def test_unknown_backend_lists_alternatives(self):
        with pytest.raises(KeyError, match="batched"):
            get_backend("no-such-backend")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError):
            register_backend(get_backend("batched"))

    def test_register_and_replace(self):
        class Fake(AlignmentBackend):
            name = "fake-for-test"

            def align_chunk(self, items, penalties, backtrace, band_width=None):
                return [PairOutcome(slot, 0) for slot, _, _ in items], None

        try:
            register_backend(Fake())
            assert "fake-for-test" in backend_names()
            register_backend(Fake(), replace=True)  # idempotent with replace
        finally:
            _BACKENDS.pop("fake-for-test", None)


@pytest.fixture(scope="module")
def chunk():
    rng = random.Random(5)
    items = []
    for slot, (length, rate) in enumerate(
        [(0, 0.0), (1, 0.5), (30, 0.05), (90, 0.15), (90, 0.0)]
    ):
        a, b = random_pair(rng, length, rate)
        items.append((slot * 10, a, b))  # sparse slots must round-trip
    return items


class TestBackendContracts:
    @pytest.mark.parametrize("name", ["batched", "swg", "wfasic"])
    def test_scores_match_oracle(self, name, chunk):
        outcomes, _ = get_backend(name).align_chunk(
            chunk, DEFAULT_PENALTIES, backtrace=False
        )
        assert [o.slot for o in outcomes] == [slot for slot, _, _ in chunk]
        for (_, a, b), outcome in zip(chunk, outcomes):
            assert outcome.success
            assert outcome.score == swg_align(a, b).score
            assert outcome.cigar is None  # backtrace off

    @pytest.mark.parametrize("name", ["batched", "swg", "wfasic"])
    def test_backtrace_cigars_valid(self, name, chunk):
        outcomes, _ = get_backend(name).align_chunk(
            chunk, DEFAULT_PENALTIES, backtrace=True
        )
        for (_, a, b), outcome in zip(chunk, outcomes):
            if not a and not b:
                # The empty alignment has a CIGAR: the empty string.
                assert outcome.cigar == ""
                assert_valid_cigar(
                    Cigar.from_compact(outcome.cigar), a, b,
                    DEFAULT_PENALTIES, outcome.score,
                )
                continue
            assert_valid_cigar(
                Cigar.from_compact(outcome.cigar), a, b,
                DEFAULT_PENALTIES, outcome.score,
            )


class TestWfasicHardwareLimits:
    def test_overlong_read_fails_cleanly(self):
        # The wfasic backend inherits the hardware MAX_READ_LEN: a read
        # past 10 kbp is rejected with success=False, not mis-scored.
        long_seq = "A" * 10_017
        outcomes, _ = get_backend("wfasic").align_chunk(
            [(0, long_seq, long_seq)], DEFAULT_PENALTIES, backtrace=False
        )
        assert outcomes[0].success is False
        assert outcomes[0].score == 0


class TestBatchedBackendSpecifics:
    @pytest.mark.parametrize("backtrace", [False, True])
    def test_matches_the_scalar_aligner(self, backtrace, chunk):
        # The per-pair WfaAligner is the reference: score, CIGAR and
        # peak wavefront bytes, pair for pair.
        outcomes, _ = get_backend("batched").align_chunk(
            chunk, DEFAULT_PENALTIES, backtrace
        )
        aligner = WfaAligner(DEFAULT_PENALTIES, keep_backtrace=backtrace)
        for (_, a, b), outcome in zip(chunk, outcomes):
            ref = aligner.align(a, b)
            assert outcome.score == ref.score
            assert outcome.cigar == (ref.cigar.compact() if backtrace else None)
            assert outcome.peak_wavefront_bytes == ref.work.peak_wavefront_bytes
            assert not outcome.band_fallback

    def test_profiled_chunk_returns_stage_counters(self):
        rng = random.Random(17)
        items = [
            (slot, *random_pair(rng, 40, 0.1)) for slot in range(6)
        ]
        outcomes, profile = get_backend("batched").align_chunk(
            items, DEFAULT_PENALTIES, backtrace=True
        )
        assert [o.slot for o in outcomes] == list(range(6))
        assert profile is not None
        for stage in ("pack", "compute", "extend", "backtrace"):
            assert stage in profile
            assert profile[stage]["calls"] >= 1

    def test_unprofiled_backend_returns_no_profile(self):
        outcomes, profile = get_backend("swg").align_chunk(
            [(0, "ACGT", "ACGT")], DEFAULT_PENALTIES, backtrace=False
        )
        assert outcomes[0].score == 0
        assert profile is None


class TestSwgSizeLimit:
    def test_long_read_is_unsupported_within_seconds(self):
        """A 10 kbp pair is refused, not filled as a 100 M-cell DP."""
        long = "ACGT" * 2_500
        start = time.perf_counter()
        result = align_pairs(
            [(long, long[::-1]), ("ACGT", "ACGA")],
            backend="swg",
            backtrace=True,
            cache_size=0,
        )
        assert time.perf_counter() - start < 5
        refused, short = result.outcomes
        assert refused.ok and not refused.success
        assert refused.error_kind == ERROR_UNSUPPORTED_READ
        assert refused.cigar is None
        assert short.success and short.score == swg_align("ACGT", "ACGA").score

    def test_limit_is_on_dp_cells(self):
        side = int(SWG_MAX_CELLS**0.5)
        # A long read against an empty side is a thin matrix and aligns.
        (thin,), _ = get_backend("swg").align_chunk(
            [(0, "A" * (side * 4), "")], DEFAULT_PENALTIES, backtrace=False
        )
        assert thin.success
        (wide,), _ = get_backend("swg").align_chunk(
            [(0, "A" * side, "A" * (side + 1))], DEFAULT_PENALTIES, backtrace=False
        )
        assert not wide.success and wide.error_kind == ERROR_UNSUPPORTED_READ
