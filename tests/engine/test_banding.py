"""Engine-level tests for adaptive wavefront banding.

The engine contract under ``EngineConfig.band_width``:

* only band-capable backends accept it (config validation),
* results are bit-identical to exact when the band covers the optimum,
* a banded run that reports ``reached_end=False`` is transparently
  re-aligned exact and counted (``BatchReport.band_fallbacks`` and the
  ``engine_band_fallbacks_total`` metric),
* banding composes with the per-pair error channels, the parallel
  path, and the result cache.

The per-pair :class:`repro.align.WfaAligner` is the reference every
banded engine run is checked against (:func:`_reference`).
"""

import multiprocessing
import os
import random
from dataclasses import replace as dc_replace

import pytest

from repro.align import BatchedWfaAligner, DEFAULT_PENALTIES, WfaAligner
from repro.engine import (
    BatchAlignmentEngine,
    EngineConfig,
    align_pairs,
    backend_names,
)
from repro.engine import backends as backends_mod
from repro.obs import MetricsRegistry, set_registry
from repro.workloads import PairGenerator
from tests.util import random_pair


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Scope published metrics to each test."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


#: The band-capable backends.
BAND_BACKENDS = [
    name for name in backend_names() if backends_mod.get_backend(name).supports_band
]


def _workload(seed: int, count: int = 24) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [random_pair(rng, rng.randint(0, 200), 0.1) for _ in range(count)]


def _reference(pairs, band_width, *, backtrace=False, dead=lambda a, b: False):
    """Per-pair ``WfaAligner`` answers under the engine's band contract.

    One ``(score, cigar, band_fallback, peak_wavefront_bytes)`` per pair:
    a pair whose band died (``reached_end=False``, or ``dead(a, b)``,
    mirroring a fake aligner) is re-aligned exact and charged the larger
    of its banded and exact peaks.
    """
    rows = []
    for a, b in pairs:
        res = WfaAligner(keep_backtrace=backtrace, band_width=band_width).align(a, b)
        peak = res.work.peak_wavefront_bytes
        fallback = not res.reached_end or (band_width is not None and dead(a, b))
        if fallback:
            res = WfaAligner(keep_backtrace=backtrace).align(a, b)
            peak = max(peak, res.work.peak_wavefront_bytes)
        cigar = res.cigar.compact() if backtrace else None
        rows.append((res.score, cigar, fallback, peak))
    return rows


def _observed(res):
    """The engine's answers, in :func:`_reference`'s shape."""
    return [
        (o.score, o.cigar, o.band_fallback, o.peak_wavefront_bytes)
        for o in res.outcomes
    ]


def _assert_matches_reference(res, expected):
    assert _observed(res) == expected
    assert res.report.band_fallbacks == sum(row[2] for row in expected)
    assert res.report.peak_wavefront_bytes == sum(row[3] for row in expected)


class TestConfigValidation:
    def test_band_needs_capable_backend(self):
        with pytest.raises(ValueError, match="does not support band_width"):
            EngineConfig(backend="swg", band_width=8)

    def test_band_width_must_be_positive(self):
        with pytest.raises(ValueError, match="band_width"):
            EngineConfig(backend="batched", band_width=0)

    def test_capable_backends_accept_band(self):
        for backend in BAND_BACKENDS:
            cfg = EngineConfig(backend=backend, band_width=8)
            assert cfg.band_width == 8

    def test_supports_band_flags(self):
        assert BAND_BACKENDS == ["batched"]
        assert not backends_mod.get_backend("swg").supports_band
        assert not backends_mod.get_backend("wfasic").supports_band


class TestBandedOutcomes:
    @pytest.mark.parametrize("backend", BAND_BACKENDS)
    def test_wide_band_bit_identical_to_exact(self, backend):
        pairs = _workload(1)
        exact = align_pairs(pairs, backend=backend, backtrace=True, cache_size=0)
        banded = align_pairs(
            pairs,
            backend=backend,
            backtrace=True,
            cache_size=0,
            band_width=1000,
        )
        assert banded.scores == exact.scores
        assert [o.cigar for o in banded.outcomes] == [
            o.cigar for o in exact.outcomes
        ]
        assert banded.report.band_fallbacks == 0

    @pytest.mark.parametrize("backend", BAND_BACKENDS)
    def test_narrow_band_is_pessimistic_never_optimistic(self, backend):
        pairs = _workload(2)
        exact = align_pairs(pairs, backend=backend, cache_size=0)
        banded = align_pairs(
            pairs, backend=backend, cache_size=0, band_width=2
        )
        assert all(b >= e for b, e in zip(banded.scores, exact.scores))

    def test_scalar_and_batched_agree_banded(self):
        """The batched backend equals the scalar aligner, pair for pair."""
        pairs = _workload(3)
        for bw in (2, 16):
            res = align_pairs(
                pairs, backend="batched", backtrace=True, cache_size=0,
                band_width=bw,
            )
            _assert_matches_reference(
                res, _reference(pairs, bw, backtrace=True)
            )

    def test_peak_wavefront_bytes_reported(self):
        pairs = _workload(4, count=8)
        res = align_pairs(pairs, backend="batched", cache_size=0, band_width=8)
        assert res.report.peak_wavefront_bytes > 0
        assert (
            res.report.as_dict()["peak_wavefront_bytes"]
            == res.report.peak_wavefront_bytes
        )
        _assert_matches_reference(res, _reference(pairs, 8))
        # The counter is reported unbanded too: the baseline rides the
        # same channel the banded runs use.
        exact = align_pairs(pairs, backend="batched", cache_size=0)
        _assert_matches_reference(exact, _reference(pairs, None))
        assert (
            exact.report.peak_wavefront_bytes
            > res.report.peak_wavefront_bytes
        )


class _FailBandedBatched(BatchedWfaAligner):
    """Banded runs all come back dead — forces the fallback path."""

    def align_batch(self, pairs):
        results = super().align_batch(pairs)
        if self.band_width is not None:
            return [
                dc_replace(r, score=-1, cigar=None, reached_end=False)
                for r in results
            ]
        return results


def _inflate(peak: int, pattern: str) -> int:
    """A banded peak above the exact one for odd-length patterns only."""
    return peak * 1000 + 1 if len(pattern) % 2 else peak


class _InflatedDeadBandBatched(_FailBandedBatched):
    """Dead bands whose runs report a large peak for half the pairs."""

    def align_batch(self, pairs):
        results = super().align_batch(pairs)
        if self.band_width is None:
            return results
        return [
            dc_replace(
                r,
                work=dc_replace(
                    r.work,
                    peak_wavefront_bytes=_inflate(r.work.peak_wavefront_bytes, a),
                ),
            )
            for r, (a, _) in zip(results, pairs)
        ]


class TestBandFallback:
    """Every pair's band dies -> every pair is re-aligned exact."""

    def test_dead_band_degrades_to_exact(self, monkeypatch, _fresh_registry):
        monkeypatch.setattr(backends_mod, "BatchedWfaAligner", _FailBandedBatched)
        pairs = _workload(5, count=10)
        banded = align_pairs(
            pairs, backend="batched", backtrace=True, cache_size=0, band_width=32
        )
        _assert_matches_reference(
            banded,
            _reference(pairs, 32, backtrace=True, dead=lambda a, b: True),
        )
        assert banded.report.band_fallbacks == len(pairs)
        assert banded.report.as_dict()["band_fallbacks"] == len(pairs)
        counter = _fresh_registry.counter("engine_band_fallbacks_total")
        assert counter.value({"backend": "batched"}) == len(pairs)

    def test_fallback_peak_is_max_of_banded_and_exact(self, monkeypatch):
        """A retried pair is charged its larger peak."""
        pairs = _workload(5, count=10)
        monkeypatch.setattr(
            backends_mod, "BatchedWfaAligner", _InflatedDeadBandBatched
        )
        res = align_pairs(
            pairs, backend="batched", backtrace=True, cache_size=0,
            band_width=32,
        )
        assert res.report.band_fallbacks == len(pairs)
        banded = [
            _inflate(
                WfaAligner(DEFAULT_PENALTIES, band_width=32)
                .align(a, b).work.peak_wavefront_bytes,
                a,
            )
            for a, b in pairs
        ]
        exact = [
            WfaAligner(DEFAULT_PENALTIES).align(a, b).work.peak_wavefront_bytes
            for a, b in pairs
        ]
        # The fixture makes the banded peak win for some pairs only.
        assert any(bp > ep for bp, ep in zip(banded, exact))
        assert any(bp < ep for bp, ep in zip(banded, exact))
        expected = list(map(max, banded, exact))
        assert [o.peak_wavefront_bytes for o in res.outcomes] == expected
        assert res.report.peak_wavefront_bytes == sum(expected)

    def test_no_fallbacks_without_banding(self, _fresh_registry):
        pairs = _workload(6, count=6)
        res = align_pairs(pairs, backend="batched", cache_size=0)
        assert res.report.band_fallbacks == 0


def _odd_text(a: str, b: str) -> bool:
    return len(b) % 2 == 1


class _OddDeadBandBatched(BatchedWfaAligner):
    """The band dies on odd-length texts only."""

    def align_batch(self, pairs):
        results = super().align_batch(pairs)
        if self.band_width is None:
            return results
        return [
            dc_replace(r, score=-1, cigar=None, reached_end=False)
            if _odd_text(a, b) else r
            for r, (a, b) in zip(results, pairs)
        ]


class _OnePairAligner(_OddDeadBandBatched):
    """Fails when asked for more than one pair: raises, or exits a worker."""

    fault = "raise"

    def align_batch(self, pairs):
        if len(pairs) > 1:
            if self.fault == "exit" and multiprocessing.parent_process():
                os._exit(17)
            raise RuntimeError("injected multi-pair chunk fault")
        return super().align_batch(pairs)


class TestBandComposition:
    def test_error_channel_composes(self):
        """A malformed pair errors per-pair; banded neighbours still align."""
        pairs = [("ACGT", "ACGT"), ("AXGT", "ACGT"), ("GGG", "GGC")]
        res = align_pairs(
            pairs, backend="batched", cache_size=0, band_width=8
        )
        assert not res.outcomes[1].ok
        assert res.outcomes[0].ok and res.outcomes[2].ok
        assert res.report.errors == 1 and res.report.rejected == 1

    def test_parallel_dispatch_composes(self):
        pairs = _workload(7, count=30)
        serial = align_pairs(
            pairs, backend="batched", backtrace=True, cache_size=0,
            band_width=64,
        )
        with BatchAlignmentEngine(
            EngineConfig(
                backend="batched",
                workers=2,
                chunk_size=8,
                backtrace=True,
                cache_size=0,
                band_width=64,
            )
        ) as engine:
            parallel = engine.align_batch(pairs)
        assert parallel.scores == serial.scores
        assert [o.cigar for o in parallel.outcomes] == [
            o.cigar for o in serial.outcomes
        ]

    def test_isolated_replay_keeps_the_band(self, monkeypatch, _fresh_registry):
        """Every dispatch path keeps the band and the band counters.

        The aligner's band dies on odd-length texts.  Its faulty
        variant fails when asked for more than one pair: in the engine
        process by raising, so each pair of the chunk is replayed alone;
        in a pool worker by killing it, so the lost chunk is quarantined
        pair by pair.  Each path must return the scalar aligner's banded
        answers (some pessimistic at this band, not the exact ones):
        per pair, its score, fallback and ``max(banded, exact)`` peak.
        The counters ride on the outcomes: neither name is a profile
        stage or an ``engine_stage_*`` series.
        """
        pairs = [
            (pair.pattern, pair.text)
            for pair in PairGenerator(
                length=300, error_rate=0.15, seed=5, max_text_length=330
            ).batch(12)
        ]
        expected = _reference(pairs, 4, dead=_odd_text)
        exact = _reference(pairs, None)
        monkeypatch.setattr(backends_mod, "BatchedWfaAligner", _OddDeadBandBatched)
        options = dict(backend="batched", cache_size=0, band_width=4)
        runs = {
            "workers=1": align_pairs(pairs, **options),
            "workers=2": align_pairs(pairs, workers=2, chunk_size=4, **options),
        }
        # The band matters here, and some pairs fall back.
        assert [row[0] for row in expected] != [row[0] for row in exact]
        assert any(row[2] for row in expected)
        monkeypatch.setattr(backends_mod, "BatchedWfaAligner", _OnePairAligner)
        runs["isolated"] = align_pairs(pairs, **options)
        monkeypatch.setattr(_OnePairAligner, "fault", "exit")
        runs["quarantined"] = align_pairs(
            pairs, workers=2, chunk_size=6, chunk_timeout=2.0,
            max_chunk_retries=0, **options,
        )
        # Quarantined chunks are accounted to the engine process.
        assert os.getpid() in {
            w.worker_id for w in runs["quarantined"].report.worker_stats
        }

        work_counters = {"band_fallbacks", "peak_wavefront_bytes"}
        for name, res in runs.items():
            assert res.report.errors == 0, name
            _assert_matches_reference(res, expected)
            assert work_counters.isdisjoint(res.report.profile), name
        snapshot = _fresh_registry.snapshot()
        stages = {
            series["labels"]["stage"]
            for metric in ("engine_stage_seconds_total", "engine_stage_calls_total")
            for series in snapshot[metric]["series"]
        }
        assert "execute" in stages
        assert work_counters.isdisjoint(stages)

    def test_banded_cache_hits_are_stable(self):
        pairs = _workload(8, count=8)
        cfg = EngineConfig(backend="batched", band_width=4, cache_size=64)
        with BatchAlignmentEngine(cfg) as engine:
            first = engine.align_batch(pairs)
            second = engine.align_batch(pairs)
        assert second.report.cache_hits == len(pairs)
        assert second.scores == first.scores
