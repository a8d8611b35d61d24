"""Regression tests for ``merge_batch_reports`` (ISSUE 8 satellite 1).

The original merge summed ``elapsed_seconds`` across reports — correct
only for strictly serial back-to-back batches.  The serving layer's
batches are separated by idle time (and can interleave with queueing),
so the summed span fabricated pairs/s, GCUPS and worker utilisation.
The fix threads the caller-measured wall-clock span through
``wall_seconds``; the sum survives as the documented fallback.
"""

import pytest

from repro.engine import WorkerStats, merge_batch_reports
from repro.engine.engine import BatchReport


def report(elapsed, num_pairs=10, swg_cells=1_000_000, busy=None):
    return BatchReport(
        backend="batched",
        workers=2,
        num_pairs=num_pairs,
        pairs_aligned=num_pairs,
        cache_hits=0,
        coalesced=0,
        elapsed_seconds=elapsed,
        swg_cells=swg_cells,
        worker_stats=[WorkerStats(0, 1, num_pairs, busy)] if busy else [],
        profile={"execute": {"calls": 1, "seconds": elapsed}},
    )


class TestWallClockSpan:
    def test_overlapping_reports_use_the_session_span(self):
        # Two 1 s batches that ran concurrently inside a 1.2 s session:
        # the serial sum (2.0 s) would halve every derived rate.
        merged = merge_batch_reports(
            [report(1.0), report(1.0)], wall_seconds=1.2
        )
        assert merged.elapsed_seconds == 1.2
        assert merged.num_pairs == 20
        assert merged.pairs_per_second == pytest.approx(20 / 1.2)
        assert merged.gcups == pytest.approx(2_000_000 / 1.2 / 1e9)

    def test_idle_gaps_deflate_rates_honestly(self):
        # Two fast batches separated by idle time: the session served
        # 20 pairs over 10 s of wall clock, not over 0.2 s of busy time.
        merged = merge_batch_reports(
            [report(0.1), report(0.1)], wall_seconds=10.0
        )
        assert merged.pairs_per_second == pytest.approx(2.0)

    def test_worker_utilisation_follows_the_span(self):
        merged = merge_batch_reports(
            [report(1.0, busy=0.5), report(1.0, busy=0.5)],
            wall_seconds=4.0,
        )
        # 1.0 s of busy time over a 4 s session on 2 workers.
        assert merged.worker_utilisation == pytest.approx(1.0 / 8.0)

    def test_zero_span_allowed(self):
        assert merge_batch_reports(
            [report(1.0)], wall_seconds=0.0
        ).elapsed_seconds == 0.0

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError, match="wall_seconds"):
            merge_batch_reports([report(1.0)], wall_seconds=-0.1)


class TestSerialFallback:
    def test_sum_remains_the_default(self):
        # Serial back-to-back merges with no clock of their own keep
        # the historical behaviour.
        merged = merge_batch_reports([report(1.0), report(2.5)])
        assert merged.elapsed_seconds == pytest.approx(3.5)

    def test_counters_and_profile_unaffected_by_span_choice(self):
        reports = [report(1.0), report(2.0)]
        with_span = merge_batch_reports(reports, wall_seconds=2.5)
        without = merge_batch_reports(reports)
        for field in (
            "num_pairs", "pairs_aligned", "cache_hits", "coalesced",
            "errors", "rejected", "retries", "swg_cells", "profile",
        ):
            assert getattr(with_span, field) == getattr(without, field)
        assert with_span.profile["execute"]["seconds"] == pytest.approx(3.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            merge_batch_reports([])
