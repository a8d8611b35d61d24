"""Tests for the engine's LRU result cache."""

import pytest

from repro.align import AffinePenalties, DEFAULT_PENALTIES, WfaAligner
from repro.engine import AlignmentCache, BatchAlignmentEngine, EngineConfig
from repro.engine.backends import PairOutcome
from repro.engine.validation import ERROR_BACKEND


class TestLruSemantics:
    def test_hit_after_put(self):
        cache = AlignmentCache(4)
        cache.put(("AC", "AC"), (0, True, None))
        assert cache.get(("AC", "AC")) == (0, True, None)

    def test_miss_returns_none(self):
        cache = AlignmentCache(4)
        assert cache.get(("AC", "AC")) is None

    def test_eviction_drops_least_recently_used(self):
        cache = AlignmentCache(2)
        cache.put(("A", "A"), (1, True, None))
        cache.put(("C", "C"), (2, True, None))
        cache.get(("A", "A"))  # refresh A: C becomes the LRU tail
        cache.put(("G", "G"), (3, True, None))
        assert len(cache) == 2
        assert cache.get(("C", "C")) is None
        assert cache.get(("A", "A")) == (1, True, None)
        assert cache.get(("G", "G")) == (3, True, None)

    def test_zero_capacity_disables_storage(self):
        cache = AlignmentCache(0)
        cache.put(("A", "A"), (1, True, None))
        assert len(cache) == 0
        assert cache.get(("A", "A")) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            AlignmentCache(-1)

    def test_clear_drops_every_entry(self):
        cache = AlignmentCache(4)
        cache.put(("A", "A"), (1, True, None))
        cache.clear()
        assert len(cache) == 0
        assert cache.get(("A", "A")) is None

    def test_put_outcome_round_trip(self):
        cache = AlignmentCache(4)
        cache.put_outcome(("AC", "AG"), PairOutcome(0, 4, True, "1M1X"))
        assert cache.get(("AC", "AG")) == (4, True, "1M1X")

    def test_errored_outcome_never_cached(self):
        cache = AlignmentCache(4)
        cache.put_outcome(("AC", "AG"), PairOutcome.error(0, ERROR_BACKEND, "x"))
        assert len(cache) == 0



class TestKeying:
    def test_key_separates_pattern_text_roles(self):
        cache = AlignmentCache(4)
        cache.put(("AAC", "AG"), (4, True, None))
        assert cache.get(("AG", "AAC")) is None


class TestPerEngineCache:
    """Each engine answers repeats from its own cache, with its own outcome.

    The key is the pair alone: the backend, penalties, backtrace flag
    and band width are fixed by each engine's frozen config, so engines
    that differ in any of them must never share an answer.  Each case
    is an engine that differs from the default one in one field.
    """

    # Drifts by 4 diagonals: a band of 2 converges pessimistically.
    PAIR = ("ACGTACGTACGTACGTACGTACGT", "ACGTACGTTTTTACGTACGTACGTACGT")

    @pytest.mark.parametrize(
        "options",
        [
            pytest.param({"band_width": 2}, id="band"),
            pytest.param({"backtrace": True}, id="backtrace"),
            pytest.param({"penalties": AffinePenalties(2, 3, 1)}, id="penalties"),
        ],
    )
    def test_engines_keep_their_own_outcomes(self, options):
        def reference(band_width=None, backtrace=False, penalties=DEFAULT_PENALTIES):
            res = WfaAligner(penalties, band_width=band_width).align(*self.PAIR)
            return res.score, res.cigar.compact() if backtrace else None

        expected = reference(**options)
        assert expected != reference()  # the option changes the answer
        plain = BatchAlignmentEngine(EngineConfig(cache_size=8))
        other = BatchAlignmentEngine(EngineConfig(cache_size=8, **options))
        for _ in range(2):
            # Interleaved: each engine sees the pair after the other did.
            first = plain.align_batch([self.PAIR])
            second = other.align_batch([self.PAIR])
        assert first.report.cache_hits == second.report.cache_hits == 1
        assert (first.outcomes[0].score, first.outcomes[0].cigar) == reference()
        assert (second.outcomes[0].score, second.outcomes[0].cigar) == expected
