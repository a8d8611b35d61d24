"""Unit tests for the micro-batching scheduler (admission control).

No sockets here: the :class:`MicroBatcher` is driven directly on a
private event loop per test (the suite has no async plugin — each test
owns its loop via ``asyncio.run``), against a real single-worker
engine.  The socket/connection layer has its own suite in
``test_server.py``.
"""

import asyncio
import dataclasses
import time
from collections import deque

import pytest

from repro.engine import BatchAlignmentEngine, EngineConfig
from repro.engine.engine import BatchReport, merge_batch_reports
from repro.obs import MetricsRegistry
from repro.serve import (
    ERROR_DEADLINE,
    ERROR_QUEUE_FULL,
    ERROR_SHUTTING_DOWN,
    AlignRequest,
    MicroBatcher,
    ServeConfig,
)

PAIRS = [("ACGT", "ACGT"), ("ACGT", "ACCT"), ("AAAA", "AATA")]


def run_batcher(coro_fn, config=None, *, registry=None):
    """Run ``coro_fn(batcher)`` against a fresh engine + batcher."""

    async def main():
        with BatchAlignmentEngine(EngineConfig(workers=1)) as engine:
            batcher = MicroBatcher(engine, config, registry=registry)
            batcher.start()
            try:
                return await coro_fn(batcher)
            finally:
                await batcher.drain()

    return asyncio.run(main())


def request(i, pattern="ACGT", text="ACCT", deadline_ms=None):
    return AlignRequest(
        request_id=i, pattern=pattern, text=text, deadline_ms=deadline_ms
    )


class TestDispatch:
    def test_single_request_round_trip(self):
        async def go(batcher):
            return await batcher.submit(request(1, "ACGT", "ACGT"))

        doc = run_batcher(go, ServeConfig(batch_window=0.0))
        assert doc == {
            "id": 1,
            "ok": True,
            "score": 0,
            "success": True,
            "cigar": None,
            "error_kind": None,
            "error_msg": None,
        }

    def test_concurrent_submissions_share_a_batch(self):
        async def go(batcher):
            docs = await asyncio.gather(
                *(batcher.submit(request(i, p, t))
                  for i, (p, t) in enumerate(PAIRS))
            )
            return docs

        registry = MetricsRegistry()
        docs = run_batcher(
            go, ServeConfig(batch_window=0.05), registry=registry
        )
        assert [d["id"] for d in docs] == [0, 1, 2]
        assert all(d["ok"] for d in docs)
        # One window, one batch: the whole gather dispatched together.
        snap = registry.snapshot()
        assert snap["serve_batches_total"]["series"][0]["value"] == 1
        sizes = snap["serve_batch_size"]["series"][0]["value"]
        assert sizes["count"] == 1 and sizes["max"] == len(PAIRS)

    def test_full_batch_closes_window_early(self):
        config = ServeConfig(batch_window=30.0, max_batch=3)

        async def go(batcher):
            start = time.perf_counter()
            await asyncio.gather(
                *(batcher.submit(request(i, p, t))
                  for i, (p, t) in enumerate(PAIRS))
            )
            return time.perf_counter() - start

        # With a 30 s window, only the early close explains a fast run.
        assert run_batcher(go, config) < 5.0

    def test_cross_client_duplicates_coalesce_in_engine(self):
        async def go(batcher):
            docs = await asyncio.gather(
                *(batcher.submit(request(i, "ACGT", "ACCT"))
                  for i in range(6))
            )
            report = batcher.session_report()
            return docs, report

        docs, report = run_batcher(go, ServeConfig(batch_window=0.05))
        assert len({d["score"] for d in docs}) == 1
        # Six identical requests, one window: one real alignment, the
        # rest folded by within-batch coalescing (or served by the LRU
        # cache if a straggler lands in a second batch).
        assert report.num_pairs == 6
        assert report.pairs_aligned == 1
        assert report.coalesced + report.cache_hits == 5


class TestAdmission:
    def test_queue_full_rejected_with_retry_hint(self):
        async def go(batcher):
            # Fill the queue directly (without waking the loop) so the
            # depth is exactly at capacity when the real submit arrives.
            batcher._queue.extend(
                _pending(asyncio.get_running_loop(), i) for i in range(2)
            )
            return await batcher.submit(request(99))

        doc = run_batcher(go, ServeConfig(max_queue_depth=2))
        assert doc["ok"] is False
        assert doc["error_kind"] == ERROR_QUEUE_FULL
        assert doc["retry_after_ms"] >= 1.0

    def test_deadline_expired_in_queue_never_dispatches(self):
        async def go(batcher):
            stale = batcher.submit(
                request(1, deadline_ms=0.001)
            )
            await asyncio.sleep(0.03)  # deadline passes inside the window
            return await stale

        doc = run_batcher(go, ServeConfig(batch_window=0.02))
        assert doc["ok"] is False
        assert doc["error_kind"] == ERROR_DEADLINE

    def test_default_deadline_applies_when_request_has_none(self):
        config = ServeConfig(batch_window=0.05, default_deadline_ms=0.001)

        async def go(batcher):
            stale = batcher.submit(request(1))
            await asyncio.sleep(0.03)
            return await stale

        assert run_batcher(go, config)["error_kind"] == ERROR_DEADLINE

    def test_draining_rejects_new_submissions(self):
        async def go(batcher):
            await batcher.drain()
            return await batcher.submit(request(1))

        doc = run_batcher(go)
        assert doc["error_kind"] == ERROR_SHUTTING_DOWN

    def test_drain_still_answers_queued_requests(self):
        async def go(batcher):
            pending = [
                asyncio.ensure_future(batcher.submit(request(i, p, t)))
                for i, (p, t) in enumerate(PAIRS)
            ]
            await asyncio.sleep(0)  # queued, not yet dispatched
            await batcher.drain()
            return [await f for f in pending]

        docs = run_batcher(go, ServeConfig(batch_window=60.0))
        assert [d["ok"] for d in docs] == [True, True, True]


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_window": -0.001},
            {"max_batch": 0},
            {"max_queue_depth": 0},
            {"default_deadline_ms": 0},
            {"default_deadline_ms": -1},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)


class TestSessionReport:
    def test_none_before_first_batch(self):
        async def go(batcher):
            return batcher.session_report()

        assert run_batcher(go) is None

    def test_uses_session_wall_clock(self):
        async def go(batcher):
            await batcher.submit(request(1))
            await asyncio.sleep(0.05)  # idle time the sum would drop
            await batcher.submit(request(2))
            return batcher.session_report()

        report = run_batcher(go, ServeConfig(batch_window=0.0))
        assert report.num_pairs == 2
        # Wall span includes the idle gap; the per-batch sum cannot.
        assert report.elapsed_seconds >= 0.05

    def test_folds_reports_without_keeping_them(self):
        reports = []

        async def go(batcher):
            align_batch = batcher.engine.align_batch

            def recording(pairs):
                result = align_batch(pairs)
                reports.append(result.report)
                return result

            batcher.engine.align_batch = recording
            for i, (p, t) in enumerate(PAIRS * 2):
                await batcher.submit(request(i, p, t))
            # Memory stays flat: nothing on the batcher holds the
            # per-batch reports.
            for value in vars(batcher).values():
                if isinstance(value, (list, tuple, deque)):
                    assert not any(isinstance(v, BatchReport) for v in value)
            return batcher.session_report()

        session = run_batcher(go, ServeConfig(batch_window=0.0))
        assert len(reports) == 2 * len(PAIRS)
        expected = merge_batch_reports(
            reports, wall_seconds=session.elapsed_seconds
        )
        for f in dataclasses.fields(BatchReport):
            assert getattr(session, f.name) == getattr(expected, f.name), f.name


def _pending(loop, i):
    from repro.serve.scheduler import _Pending

    return _Pending(
        request=request(i),
        future=loop.create_future(),
        arrival=time.perf_counter(),
        expires=None,
    )


class TestMultiInstance:
    """The ``instances`` pool: N engines behind the shared queue."""

    @staticmethod
    def run_multi(coro_fn, config=None, *, instances=2, registry=None):
        """Run ``coro_fn(batcher, engines)`` against an engine pool."""

        async def main():
            engines = [
                BatchAlignmentEngine(EngineConfig(workers=1))
                for _ in range(instances)
            ]
            try:
                batcher = MicroBatcher(engines, config, registry=registry)
                batcher.start()
                try:
                    return await coro_fn(batcher, engines)
                finally:
                    await batcher.drain()
            finally:
                for engine in engines:
                    engine.close()

        return asyncio.run(main())

    def test_config_rejects_zero_instances(self):
        with pytest.raises(ValueError):
            ServeConfig(instances=0)

    def test_empty_engine_pool_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher([])

    def test_round_trip_through_the_pool(self):
        async def go(batcher, engines):
            return await asyncio.gather(
                *(batcher.submit(request(i, p, t))
                  for i, (p, t) in enumerate(PAIRS * 3))
            )

        docs = self.run_multi(
            go, ServeConfig(batch_window=0.0, max_batch=2), instances=3
        )
        assert [d["id"] for d in docs] == list(range(9))
        assert all(d["ok"] for d in docs)

    def test_concurrent_batches_use_distinct_engines(self):
        served = []

        async def go(batcher, engines):
            for idx, engine in enumerate(engines):
                orig = engine.align_batch

                def spy(pairs, *, _idx=idx, _orig=orig):
                    served.append(_idx)
                    time.sleep(0.05)  # hold the engine busy
                    return _orig(pairs)

                engine.align_batch = spy
            return await asyncio.gather(
                *(batcher.submit(request(i)) for i in range(4))
            )

        docs = self.run_multi(
            go, ServeConfig(batch_window=0.0, max_batch=1), instances=2
        )
        assert all(d["ok"] for d in docs)
        # Four one-request batches over two engines held busy 50 ms
        # each: the second batch cannot wait for the first engine.
        assert set(served) == {0, 1}

    def test_drain_answers_queued_requests(self):
        async def go(batcher, engines):
            pending = [
                asyncio.ensure_future(batcher.submit(request(i, p, t)))
                for i, (p, t) in enumerate(PAIRS)
            ]
            await asyncio.sleep(0)  # queued, not yet dispatched
            await batcher.drain()
            return [await f for f in pending]

        docs = self.run_multi(go, ServeConfig(batch_window=60.0))
        assert [d["ok"] for d in docs] == [True, True, True]

    def test_session_report_spans_the_pool(self):
        async def go(batcher, engines):
            await asyncio.gather(
                *(batcher.submit(request(i)) for i in range(4))
            )
            return batcher.session_report()

        report = self.run_multi(
            go, ServeConfig(batch_window=0.0, max_batch=1), instances=2
        )
        assert report.num_pairs == 4

    @pytest.mark.parametrize("instances", [1, 2])
    def test_engine_failure_answers_each_request_once(self, instances):
        """A raising ``align_batch`` fans out one error per request.

        The failed batch's requests each get exactly one
        ``backend_error`` document, and the loop goes on to serve the
        next batch.
        """
        failures = []

        async def go(batcher, engines):
            for engine in engines:

                def flaky(pairs, *, _orig=engine.align_batch):
                    if not failures:
                        failures.append(len(pairs))
                        raise RuntimeError("injected engine fault")
                    return _orig(pairs)

                engine.align_batch = flaky
            failed = await asyncio.gather(
                *(batcher.submit(request(i, p, t))
                  for i, (p, t) in enumerate(PAIRS))
            )
            served = await batcher.submit(request(9))
            return failed, served

        failed, served = self.run_multi(
            go,
            ServeConfig(batch_window=0.05, max_batch=len(PAIRS)),
            instances=instances,
        )
        assert failures == [len(PAIRS)]
        assert [d["id"] for d in failed] == list(range(len(PAIRS)))
        for doc in failed:
            assert not doc["ok"]
            assert doc["error_kind"] == "backend_error"
            assert "injected engine fault" in doc["error_msg"]
        assert served["ok"] and served["id"] == 9

    def test_single_engine_pool_runs_the_same_loop(self):
        async def go(batcher, engines):
            assert batcher.engine is engines[0]
            return await batcher.submit(request(7))

        doc = self.run_multi(go, ServeConfig(batch_window=0.0), instances=1)
        assert doc["ok"] and doc["id"] == 7
