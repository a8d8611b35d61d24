"""Tests for the batch alignment engine: sharding, caching, counters."""

import pytest

from repro.align import AffinePenalties, swg_align
from repro.engine import (
    AlignmentBackend,
    BatchAlignmentEngine,
    EngineConfig,
    align_pairs,
    register_backend,
)
from repro.engine.backends import _BACKENDS, PairOutcome
from repro.workloads import PairGenerator


@pytest.fixture()
def pairs():
    return PairGenerator(length=60, error_rate=0.1, seed=21).batch(10)


class TestConfigValidation:
    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend="bogus")

    @pytest.mark.parametrize(
        "field, value",
        [("workers", 0), ("chunk_size", 0), ("cache_size", -1)],
    )
    def test_bounds(self, field, value):
        with pytest.raises(ValueError):
            EngineConfig(**{field: value})


class TestSerialPath:
    def test_scores_in_input_order(self, pairs):
        res = align_pairs(pairs, backend="batched")
        expected = [swg_align(p.pattern, p.text).score for p in pairs]
        assert res.scores == expected
        assert [o.slot for o in res.outcomes] == list(range(len(pairs)))

    def test_accepts_plain_tuples(self):
        res = align_pairs([("ACGT", "ACGT"), ("AAAA", "TTTT")])
        assert res.scores == [0, 16]

    def test_empty_batch(self):
        res = align_pairs([])
        assert res.outcomes == []
        assert res.report.num_pairs == 0
        assert res.report.pairs_per_second == 0.0
        assert res.report.cache_hit_rate == 0.0

    def test_report_counters(self, pairs):
        res = align_pairs(pairs, backend="batched", chunk_size=3)
        rep = res.report
        assert rep.num_pairs == len(pairs)
        assert rep.pairs_aligned == len(pairs)
        assert rep.swg_cells == sum(
            len(p.pattern) * len(p.text) for p in pairs
        )
        assert rep.pairs_per_second > 0
        assert rep.gcups > 0
        assert 0 < rep.worker_utilisation <= 1.05
        assert "pairs/s" in rep.describe()
        assert rep.as_dict()["num_pairs"] == len(pairs)

    def test_report_profile_stages(self, pairs):
        # Engine-side stages are always recorded; backend stages join in
        # when the backend reports them (the batched path does, swg not).
        rep = align_pairs(pairs, backend="swg").report
        for stage in ("resolve", "dispatch", "ipc", "gather"):
            assert stage in rep.profile, rep.profile
        assert rep.as_dict()["profile"] == rep.profile

        rep = align_pairs(pairs, backend="batched").report
        for stage in ("resolve", "dispatch", "pack", "compute", "extend"):
            assert stage in rep.profile, rep.profile
        assert "stage" in rep.describe_profile()

    def test_profile_footer_adds_up_to_elapsed(self):
        # The engine's stages partition the batch's wall time; the
        # backend's stages and ipc run inside execute, so adding them
        # to the total would count that time twice.
        pairs = PairGenerator(length=150, error_rate=0.05, seed=3).batch(64)
        rep = align_pairs(pairs, backtrace=True, cache_size=0).report
        lines = rep.describe_profile().splitlines()[1:]
        top = {
            line.split()[0]: float(line.split()[-2])
            for line in lines
            if not line.startswith(" ")
        }
        nested = {
            line.split()[0]: float(line.split()[-2])
            for line in lines
            if line.startswith(" ")
        }
        assert list(top) == [
            "resolve", "dispatch", "execute", "gather", "unaccounted", "elapsed"
        ]
        assert top.pop("elapsed") == round(rep.elapsed_seconds, 4)
        assert sum(top.values()) == pytest.approx(rep.elapsed_seconds, abs=5e-4)
        assert set(nested) == set(rep.profile) - set(top)
        assert {"ipc", "pack", "compute", "extend", "backtrace"} <= set(nested)
        assert sum(nested.values()) <= top["execute"] + 5e-4


class TestParallelPath:
    def test_matches_serial(self, pairs):
        serial = align_pairs(pairs, backend="batched", workers=1)
        parallel = align_pairs(
            pairs, backend="batched", workers=2, chunk_size=2
        )
        assert parallel.scores == serial.scores
        assert parallel.report.workers == 2

    def test_pool_reused_across_batches(self, pairs):
        config = EngineConfig(backend="batched", workers=2, chunk_size=4)
        with BatchAlignmentEngine(config) as engine:
            first = engine.align_batch(pairs)
            pool = engine._pool
            second = engine.align_batch(pairs[::-1])
            assert engine._pool is pool
        assert engine._pool is None  # context exit closed it
        assert first.scores == second.scores[::-1]

    def test_close_is_idempotent(self, pairs):
        engine = BatchAlignmentEngine(EngineConfig(workers=2))
        engine.align_batch(pairs[:2])
        engine.close()
        engine.close()


class CountingBackend(AlignmentBackend):
    """Test double: counts alignments actually performed."""

    name = "counting"

    def __init__(self):
        self.calls = 0
        self.pairs_aligned = 0

    def align_chunk(self, items, penalties, backtrace, band_width=None):
        self.calls += 1
        self.pairs_aligned += len(items)
        outcomes = [
            PairOutcome(slot, score=len(a) + len(b))
            for slot, a, b in items
        ]
        return outcomes, None


@pytest.fixture()
def counting_backend():
    backend = CountingBackend()
    register_backend(backend, replace=True)
    yield backend
    _BACKENDS.pop("counting", None)


class TestCachingAndCoalescing:
    def test_within_batch_duplicates_coalesced(self, counting_backend):
        batch = [("ACGT", "ACGT")] * 7 + [("AAAA", "AAAA")] * 3
        res = align_pairs(batch, backend="counting", chunk_size=100)
        assert counting_backend.pairs_aligned == 2
        assert res.report.coalesced == 8
        assert res.report.pairs_aligned == 2
        assert res.scores == [8] * 10

    def test_cache_hits_across_batches(self, counting_backend):
        config = EngineConfig(backend="counting", cache_size=64)
        with BatchAlignmentEngine(config) as engine:
            engine.align_batch([("ACGT", "ACGT"), ("AAAA", "TTTT")])
            res = engine.align_batch([("ACGT", "ACGT"), ("CCCC", "CCCC")])
        assert res.report.cache_hits == 1
        assert res.report.pairs_aligned == 1
        assert counting_backend.pairs_aligned == 3

    def test_cache_disabled(self, counting_backend):
        config = EngineConfig(backend="counting", cache_size=0)
        with BatchAlignmentEngine(config) as engine:
            engine.align_batch([("ACGT", "ACGT")])
            res = engine.align_batch([("ACGT", "ACGT")])
        assert res.report.cache_hits == 0
        # Coalescing still works without a cache...
        res = align_pairs(
            [("ACGT", "ACGT")] * 4, backend="counting", cache_size=0
        )
        assert res.report.coalesced == 3

    def test_chunking_splits_dispatch(self, counting_backend):
        batch = [("ACGT", "ACGT" + "A" * i) for i in range(10)]
        align_pairs(batch, backend="counting", chunk_size=3)
        assert counting_backend.calls == 4  # ceil(10 / 3)

    def test_penalties_reach_cache_key(self):
        # Same pair, different penalties: results must not bleed over.
        config = EngineConfig(backend="swg", cache_size=64)
        other = EngineConfig(
            backend="swg",
            cache_size=64,
            penalties=AffinePenalties(1, 0, 1),
        )
        pair = [("AAAA", "TTTT")]
        assert align_pairs(pair, backend="swg").scores == [16]
        with BatchAlignmentEngine(other) as engine:
            assert engine.align_batch(pair).scores == [4]
        with BatchAlignmentEngine(config) as engine:
            assert engine.align_batch(pair).scores == [16]
