"""Unit tests for the per-stage profiler."""

import pickle

from repro.align.profile import StageProfiler, format_profile


class TestStageProfiler:
    def test_stage_context_accumulates(self):
        prof = StageProfiler()
        for _ in range(3):
            with prof.stage("compute"):
                pass
        stats = prof.stages["compute"]
        assert stats.calls == 3
        assert stats.seconds >= 0.0

    def test_add_and_count(self):
        prof = StageProfiler()
        prof.add("extend", 0.5, calls=2)
        prof.add("extend", 0.25)
        assert prof.stages["extend"].calls == 3
        assert prof.stages["extend"].seconds == 0.75

    def test_tracer_sink_gets_one_span_per_stage(self):
        class Sink:
            def __init__(self):
                self.spans = []

            def perf_to_us(self, perf_seconds):
                return perf_seconds * 1e6

            def complete(self, name, cat, ts_us, dur_us, *, args=None):
                self.spans.append((name, cat, dur_us, args))

        sink = Sink()
        prof = StageProfiler(sink)
        with prof.stage("execute", calls=2, args={"chunks": 2}):
            pass
        prof.add("ipc", 0.5)  # credited, not traced
        ((name, cat, dur_us, args),) = sink.spans
        assert (name, cat, args) == ("execute", "engine", {"chunks": 2})
        assert dur_us == prof.stages["execute"].seconds * 1e6
        assert prof.stages["execute"].calls == 2

    def test_merge_profiler_and_dict(self):
        a = StageProfiler()
        a.add("compute", 1.0)
        b = StageProfiler()
        b.add("compute", 2.0)
        b.add("extend", 0.25, calls=4)
        a.merge(b)
        a.merge(b.as_dict())
        a.merge(None)  # no-op
        assert a.stages["compute"].calls == 3
        assert a.stages["compute"].seconds == 5.0
        assert a.stages["extend"].calls == 8

    def test_as_dict_round_trips_through_pickle(self):
        # Workers ship their counters back with each chunk result.
        prof = StageProfiler()
        prof.add("pack", 0.125, calls=3)
        payload = pickle.loads(pickle.dumps(prof.as_dict()))
        assert payload == {"pack": {"calls": 3, "seconds": 0.125}}

    def test_stats_exact_after_exception(self):
        prof = StageProfiler()
        try:
            with prof.stage("compute"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert prof.stages["compute"].calls == 1


class TestFormatProfile:
    def test_sorted_by_time_with_counters_last(self):
        prof = StageProfiler()
        prof.add("extend", 0.1)
        prof.add("compute", 0.3)
        prof.add("ipc", 0.0, calls=5)
        text = format_profile(prof.as_dict())
        lines = text.splitlines()
        assert lines[1].startswith("compute")
        assert lines[2].startswith("extend")
        assert lines[3].startswith("ipc") and lines[3].split()[2] == "-"
        assert lines[-1].startswith("total")

    def test_empty_profile(self):
        assert "no stages" in format_profile({})
