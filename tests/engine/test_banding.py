"""Engine-level tests for adaptive wavefront banding.

The engine contract under ``EngineConfig.band_width``:

* only band-capable backends accept it (config validation),
* results are bit-identical to exact when the band covers the optimum,
* a banded run that reports ``reached_end=False`` is transparently
  re-aligned exact and counted (``BatchReport.band_fallbacks`` and the
  ``engine_band_fallbacks_total`` metric),
* banding composes with the per-pair error channels, the parallel
  path, and the result cache (band-specific keys).
"""

import multiprocessing
import os
import random
from dataclasses import replace as dc_replace

import pytest

from repro.align import BatchedWfaAligner, DEFAULT_PENALTIES, WfaAligner
from repro.engine import (
    AlignmentCache,
    BatchAlignmentEngine,
    EngineConfig,
    align_pairs,
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


def _workload(seed: int, count: int = 24) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [random_pair(rng, rng.randint(0, 200), 0.1) for _ in range(count)]


class TestConfigValidation:
    def test_band_needs_capable_backend(self):
        with pytest.raises(ValueError, match="does not support band_width"):
            EngineConfig(backend="swg", band_width=8)

    def test_band_width_must_be_positive(self):
        with pytest.raises(ValueError, match="band_width"):
            EngineConfig(backend="batched", band_width=0)

    def test_capable_backends_accept_band(self):
        for backend in ("scalar", "batched"):
            cfg = EngineConfig(backend=backend, band_width=8)
            assert cfg.band_width == 8

    def test_supports_band_flags(self):
        assert backends_mod.get_backend("scalar").supports_band
        assert backends_mod.get_backend("batched").supports_band
        assert not backends_mod.get_backend("swg").supports_band


class TestBandedOutcomes:
    @pytest.mark.parametrize("backend", ["scalar", "batched"])
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

    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    def test_narrow_band_is_pessimistic_never_optimistic(self, backend):
        pairs = _workload(2)
        exact = align_pairs(pairs, backend=backend, cache_size=0)
        banded = align_pairs(
            pairs, backend=backend, cache_size=0, band_width=2
        )
        assert all(b >= e for b, e in zip(banded.scores, exact.scores))

    def test_scalar_and_batched_agree_banded(self):
        pairs = _workload(3)
        for bw in (2, 16):
            s = align_pairs(
                pairs, backend="scalar", backtrace=True, cache_size=0,
                band_width=bw,
            )
            b = align_pairs(
                pairs, backend="batched", backtrace=True, cache_size=0,
                band_width=bw,
            )
            assert s.scores == b.scores
            assert [o.cigar for o in s.outcomes] == [
                o.cigar for o in b.outcomes
            ]

    def test_peak_wavefront_bytes_reported(self):
        pairs = _workload(4, count=8)
        peaks = {}
        for backend in ("scalar", "batched"):
            res = align_pairs(
                pairs, backend=backend, cache_size=0, band_width=8
            )
            assert res.report.peak_wavefront_bytes > 0
            assert (
                res.report.as_dict()["peak_wavefront_bytes"]
                == res.report.peak_wavefront_bytes
            )
            # Both backends report the counter unbanded too — the
            # baseline rides the same channel the banded runs use.
            exact = align_pairs(pairs, backend=backend, cache_size=0)
            assert (
                exact.report.peak_wavefront_bytes
                > res.report.peak_wavefront_bytes
            )
            peaks[backend] = (
                res.report.peak_wavefront_bytes,
                exact.report.peak_wavefront_bytes,
            )
        assert peaks["scalar"] == peaks["batched"]


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


class _FailBandedScalar(WfaAligner):
    def align(self, a, b):
        result = super().align(a, b)
        if self.band_width is not None:
            return dc_replace(
                result, score=-1, cigar=None, reached_end=False
            )
        return result


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


class _InflatedDeadBandScalar(_FailBandedScalar):
    def align(self, a, b):
        result = super().align(a, b)
        if self.band_width is None:
            return result
        peak = _inflate(result.work.peak_wavefront_bytes, a)
        return dc_replace(
            result, work=dc_replace(result.work, peak_wavefront_bytes=peak)
        )


class TestBandFallback:
    """Every pair's band dies -> every pair is re-aligned exact."""

    @pytest.mark.parametrize(
        "backend,patch_name,fail_cls",
        [
            ("batched", "BatchedWfaAligner", _FailBandedBatched),
            ("scalar", "WfaAligner", _FailBandedScalar),
        ],
    )
    def test_dead_band_degrades_to_exact(
        self, monkeypatch, _fresh_registry, backend, patch_name, fail_cls
    ):
        monkeypatch.setattr(backends_mod, patch_name, fail_cls)
        pairs = _workload(5, count=10)
        exact = align_pairs(pairs, backend=backend, backtrace=True, cache_size=0)
        banded = align_pairs(
            pairs, backend=backend, backtrace=True, cache_size=0, band_width=32
        )
        assert banded.scores == exact.scores
        assert [o.cigar for o in banded.outcomes] == [
            o.cigar for o in exact.outcomes
        ]
        assert banded.report.band_fallbacks == len(pairs)
        assert banded.report.as_dict()["band_fallbacks"] == len(pairs)
        counter = _fresh_registry.counter("engine_band_fallbacks_total")
        assert counter.value({"backend": backend}) == len(pairs)

    def test_fallback_peak_is_max_of_banded_and_exact(self, monkeypatch):
        """Both backends charge a retried pair its larger peak."""
        pairs = _workload(5, count=10)
        peaks = {}
        for backend, patch_name, fail_cls in (
            ("batched", "BatchedWfaAligner", _InflatedDeadBandBatched),
            ("scalar", "WfaAligner", _InflatedDeadBandScalar),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(backends_mod, patch_name, fail_cls)
                res = align_pairs(
                    pairs, backend=backend, backtrace=True, cache_size=0,
                    band_width=32,
                )
            assert res.report.band_fallbacks == len(pairs)
            peaks[backend] = res.report.peak_wavefront_bytes
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
        expected = sum(map(max, banded, exact))
        assert peaks["batched"] == peaks["scalar"] == expected

    def test_no_fallbacks_without_banding(self, _fresh_registry):
        pairs = _workload(6, count=6)
        res = align_pairs(pairs, backend="batched", cache_size=0)
        assert res.report.band_fallbacks == 0


class _OddDeadBandScalar(WfaAligner):
    """The band dies on odd-length texts only."""

    def align(self, a, b):
        result = super().align(a, b)
        if self.band_width is not None and len(b) % 2:
            return dc_replace(
                result, score=-1, cigar=None, reached_end=False
            )
        return result


class _OnePairAligner(_OddDeadBandScalar):
    """Fails once asked for a second pair: raises, or exits a worker."""

    fault = "raise"

    def align(self, a, b):
        if getattr(self, "used", False):
            if self.fault == "exit" and multiprocessing.parent_process():
                os._exit(17)
            raise RuntimeError("injected multi-pair chunk fault")
        self.used = True
        return super().align(a, b)


def _scalar_band_counters(pairs, band_width: int) -> tuple[int, int]:
    """``(band_fallbacks, peak_wavefront_bytes)`` summed pair by pair."""
    fallbacks = peak = 0
    for pair in pairs:
        a, b = pair.pattern, pair.text
        banded = _OddDeadBandScalar(keep_backtrace=False, band_width=band_width)
        res = banded.align(a, b)
        pair_peak = res.work.peak_wavefront_bytes
        if not res.reached_end:
            fallbacks += 1
            exact = WfaAligner(keep_backtrace=False).align(a, b)
            pair_peak = max(pair_peak, exact.work.peak_wavefront_bytes)
        peak += pair_peak
    return fallbacks, peak


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

    def test_cache_key_is_band_specific(self):
        k_exact = AlignmentCache.make_key(
            "batched", "ACGT", "ACGT", DEFAULT_PENALTIES, False
        )
        k_banded = AlignmentCache.make_key(
            "batched", "ACGT", "ACGT", DEFAULT_PENALTIES, False, 8
        )
        assert k_exact != k_banded

    def test_isolated_replay_keeps_the_band(self, monkeypatch, _fresh_registry):
        """Every dispatch path keeps the band and the band counters.

        The aligner's band dies on odd-length texts.  Its faulty
        variant fails once asked for a second pair: in the engine
        process by raising, so each pair of the chunk is replayed alone;
        in a pool worker by killing it, so the lost chunk is quarantined
        pair by pair.  Each path must return a clean banded run's scores
        (some pessimistic at this band, not the exact ones), and its
        ``band_fallbacks`` / ``peak_wavefront_bytes`` must be the scalar
        aligner's per-pair sums, carried by the outcomes: neither name
        is a profile stage or an ``engine_stage_*`` series.
        """
        pairs = PairGenerator(
            length=300, error_rate=0.15, seed=5, max_text_length=330
        ).batch(12)
        exact = align_pairs(pairs, backend="scalar", cache_size=0)
        monkeypatch.setattr(backends_mod, "WfaAligner", _OddDeadBandScalar)
        options = dict(backend="scalar", cache_size=0, band_width=4)
        runs = {
            "workers=1": align_pairs(pairs, **options),
            "workers=2": align_pairs(pairs, workers=2, chunk_size=4, **options),
        }
        clean = runs["workers=1"]
        assert clean.scores != exact.scores  # the band matters here
        monkeypatch.setattr(backends_mod, "WfaAligner", _OnePairAligner)
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

        expected = _scalar_band_counters(pairs, 4)
        assert expected[0] > 0 and expected[1] > 0
        work_counters = {"band_fallbacks", "peak_wavefront_bytes"}
        for name, res in runs.items():
            assert res.report.errors == 0, name
            assert res.scores == clean.scores, name
            assert work_counters.isdisjoint(res.report.profile), name
            assert (
                res.report.band_fallbacks,
                res.report.peak_wavefront_bytes,
            ) == expected, name
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
