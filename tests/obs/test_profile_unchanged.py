"""Publishing to the registry must not perturb the profiler numbers.

The observability layer was retrofitted onto ``BatchReport.profile``;
these differential tests pin that the retrofit is purely additive — the
report's numbers are bit-identical whether or not anything is published,
and the registry mirror that ``publish_batch_report`` writes agrees with
the profile it mirrors.
"""

import copy

from repro.engine import BatchAlignmentEngine, BatchReport, EngineConfig
from repro.obs import (
    MetricsRegistry,
    Tracer,
    install_tracer,
    publish_batch_report,
    set_registry,
)
from repro.workloads import PairGenerator


class TestPublishIsAdditive:
    def _report(self) -> BatchReport:
        return BatchReport(
            backend="batched",
            workers=1,
            num_pairs=4,
            pairs_aligned=4,
            cache_hits=0,
            coalesced=0,
            elapsed_seconds=2.0,
            swg_cells=100,
            profile={
                "compute": {"calls": 7, "seconds": 1.5},
                "ipc": {"calls": 4, "seconds": 0.0},
                "pack": {"calls": 3, "seconds": 0.25},
            },
        )

    def test_as_dict_bit_identical_after_publish(self):
        report = self._report()
        before = copy.deepcopy(report.as_dict())
        publish_batch_report(report, MetricsRegistry())
        assert report.as_dict() == before

    def test_registry_mirror_matches_the_profile(self):
        report = self._report()
        registry = MetricsRegistry()
        publish_batch_report(report, registry)
        seconds = registry.counter("engine_stage_seconds_total")
        calls = registry.counter("engine_stage_calls_total")
        for stage, entry in report.profile.items():
            labels = {"stage": stage, "backend": "batched"}
            assert seconds.value(labels) == entry["seconds"]
            assert calls.value(labels) == entry["calls"]

    def test_double_publish_doubles_the_mirror_only(self):
        report = self._report()
        registry = MetricsRegistry()
        publish_batch_report(report, registry)
        once = copy.deepcopy(report.profile)
        publish_batch_report(report, registry)
        assert report.profile == once
        labels = {"stage": "compute", "backend": "batched"}
        assert registry.counter(
            "engine_stage_seconds_total"
        ).value(labels) == 2 * once["compute"]["seconds"]


class TestEngineProfileUnchanged:
    """The report's profile is the same numbers the registry mirrors."""

    def _run(self):
        pairs = PairGenerator(
            length=80, error_rate=0.05, seed=5, max_text_length=80
        ).batch(12)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with BatchAlignmentEngine(
                EngineConfig(backend="batched", workers=1, cache_size=0)
            ) as engine:
                result = engine.align_batch(pairs)
        finally:
            set_registry(previous)
        return result.report, registry

    def test_profile_keys_and_mirror_agree(self):
        report, registry = self._run()
        profile = report.profile
        # The engine stages are always present.
        assert {"resolve", "gather"} <= set(profile)
        calls = registry.counter("engine_stage_calls_total")
        seconds = registry.counter("engine_stage_seconds_total")
        for stage, entry in profile.items():
            labels = {"stage": stage, "backend": "batched"}
            assert calls.value(labels) == entry["calls"], stage
            assert seconds.value(labels) == entry["seconds"], stage

    def test_profile_shape_is_the_pre_registry_contract(self):
        report, _ = self._run()
        for entry in report.profile.values():
            assert set(entry) == {"calls", "seconds"}
            assert entry["calls"] >= 0
            assert entry["seconds"] >= 0.0


class TestSpansReconcileWithProfile:
    """Each engine stage is timed once: its span is its profile entry."""

    def test_span_dur_is_profile_seconds(self):
        pairs = PairGenerator(
            length=80, error_rate=0.05, seed=6, max_text_length=80
        ).batch(12)
        tracer = Tracer()
        previous = install_tracer(tracer)
        try:
            with BatchAlignmentEngine(
                EngineConfig(workers=1, chunk_size=4, cache_size=0)
            ) as engine:
                report = engine.align_batch(pairs).report
        finally:
            install_tracer(previous)
        spans = {
            event["name"]: event
            for event in tracer.events
            if event["ph"] == "X" and event["cat"] == "engine"
        }
        for stage in ("resolve", "dispatch", "execute", "gather"):
            assert spans[stage]["dur"] == report.profile[stage]["seconds"] * 1e6
        assert spans["execute"]["args"] == {"chunks": 3, "backend": "batched"}
        assert report.profile["execute"]["calls"] == 3
