"""The micro-batching scheduler: admission control over the batch engine.

The serving problem is amortisation: the engine's fixed per-dispatch
cost (payload build, pool hand-off, gather) is the same for 1 pair as
for 64, and the LRU cache plus within-batch coalescing only pay off
when requests actually meet inside one :meth:`align_batch` call.  So
requests from every connection land in one shared queue and the
batcher loop turns them into engine batches:

1. **Accumulate** — the first queued request opens a *batch window*
   (``ServeConfig.batch_window``, a few ms); requests arriving inside
   the window join the batch, and the window closes early once
   ``max_batch`` requests are waiting.
2. **Admit** — the queue is bounded at ``max_queue_depth``; a request
   arriving at a full queue is rejected immediately with
   ``queue_full`` and a ``retry_after_ms`` hint (clients back off
   instead of piling up — the backpressure contract).
3. **Expire** — each request carries a deadline (its own
   ``deadline_ms`` or the server default); a request whose deadline
   passed while it queued is answered ``deadline_exceeded`` *without*
   being dispatched, so an overloaded server sheds exactly the work
   nobody is waiting for any more.
4. **Dispatch** — the surviving requests go to the long-lived
   :class:`~repro.engine.BatchAlignmentEngine` as one batch (in a
   worker thread: ``align_batch`` is synchronous), where cross-client
   duplicates coalesce through the engine cache exactly as same-batch
   duplicates always have.

Latency, batch-size and queue-depth distributions are published to the
process :class:`~repro.obs.MetricsRegistry` under the ``serve_*``
vocabulary rows, and every dispatched batch lands as a span on the
installed tracer (the engine's own ``batch`` span nests right under
it on the same Perfetto timeline).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from ..engine.engine import BatchAlignmentEngine, BatchReport, merge_batch_reports
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import get_tracer
from .protocol import (
    ERROR_DEADLINE,
    ERROR_QUEUE_FULL,
    ERROR_SHUTTING_DOWN,
    AlignRequest,
    align_response,
    error_response,
)

__all__ = ["ServeConfig", "MicroBatcher"]

#: Batch-size histogram buckets: powers of two up to the largest
#: ``max_batch`` anyone sensibly configures.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Queue-depth histogram buckets (sampled at every batch formation).
QUEUE_DEPTH_BUCKETS = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)


@dataclass(frozen=True)
class ServeConfig:
    """Admission-control knobs of one serve session.

    Attributes
    ----------
    batch_window:
        Seconds the first queued request waits for company before its
        batch dispatches.  ``0`` dispatches every request immediately
        (batch-size-1 — the baseline the benchmark compares against).
    max_batch:
        Requests per dispatched batch; a full batch closes its window
        early.
    max_queue_depth:
        Queued (admitted, not yet dispatched) requests beyond which new
        arrivals are rejected with ``queue_full``.
    default_deadline_ms:
        Deadline applied to requests that carry none; ``None`` means
        such requests never expire in the queue.
    instances:
        Engine instances behind the shared queue.  ``1`` (default)
        dispatches batches strictly one at a time; ``N > 1`` keeps up
        to ``N`` batches in flight, one per engine — an engine is not
        thread-safe, so each holds at most one batch — the same
        multi-chip shape :mod:`repro.fleet` simulates in cycles.
    """

    batch_window: float = 0.002
    max_batch: int = 64
    max_queue_depth: int = 1024
    default_deadline_ms: float | None = None
    instances: int = 1

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0 (or None)")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")


@dataclass
class _Pending:
    """One admitted request waiting for its batch."""

    request: AlignRequest
    future: "asyncio.Future[dict]"
    #: ``perf_counter`` stamp at admission (latency zero point).
    arrival: float
    #: Absolute ``perf_counter`` deadline, or ``None`` for no deadline.
    expires: float | None


class MicroBatcher:
    """Admission control + micro-batch formation over one engine.

    Created by :class:`repro.serve.server.AlignmentServer`; usable on
    its own in tests.  :meth:`start` spawns the batcher loop on the
    running event loop; :meth:`submit` is awaited per request and
    resolves to the response document; :meth:`drain` stops admission,
    flushes the queue and waits for in-flight work.
    """

    def __init__(
        self,
        engine: BatchAlignmentEngine | Sequence[BatchAlignmentEngine],
        config: ServeConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        engines = (
            list(engine) if isinstance(engine, (list, tuple)) else [engine]
        )
        if not engines:
            raise ValueError("MicroBatcher needs at least one engine")
        #: Engine instances behind the shared queue; at most one batch
        #: is in flight per engine at any moment.
        self.engines: list[BatchAlignmentEngine] = engines
        #: The first engine — the only one when ``instances`` is 1.
        self.engine = engines[0]
        self.config = config or ServeConfig()
        self._registry = registry
        self._queue: deque[_Pending] = deque()
        self._wake = asyncio.Event()
        self._task: "asyncio.Task[None] | None" = None
        self._draining = False
        #: The session's engine reports folded into one as batches land
        #: (``None`` before the first): memory stays flat however long
        #: the server runs.
        self._running: BatchReport | None = None
        self._started = time.perf_counter()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn the batcher loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def drain(self) -> None:
        """Stop admitting, flush queued work, stop the loop (idempotent).

        Queued requests are still dispatched (graceful drain: every
        admitted request gets a real answer); only *new* submissions are
        rejected with ``shutting_down``.
        """
        self._draining = True
        self._wake.set()
        if self._task is not None:
            task = self._task
            self._task = None
            await task

    @property
    def queue_depth(self) -> int:
        """Requests admitted and waiting for a batch."""
        return len(self._queue)

    def session_report(self) -> BatchReport | None:
        """The session's merged engine report over its true wall span.

        ``None`` until the first batch dispatches.  Uses the session
        wall clock, not the per-batch sum — the whole point of the
        ``merge_batch_reports`` wall-span fix: a server's batches
        overlap with idle time and with each other, so summing their
        wall-times would fabricate the derived rates.
        """
        if self._running is None:
            return None
        return merge_batch_reports(
            [self._running],
            wall_seconds=time.perf_counter() - self._started,
        )

    # -- admission -----------------------------------------------------

    async def submit(self, request: AlignRequest) -> dict:
        """Admit one request and wait for its response document."""
        registry = self._registry or get_registry()
        registry.counter(
            "serve_requests_total", "Requests received by kind"
        ).inc(1, {"kind": "align"})
        if self._draining:
            registry.counter(
                "serve_rejected_total", "Requests rejected by reason"
            ).inc(1, {"kind": ERROR_SHUTTING_DOWN})
            return error_response(
                request.request_id,
                ERROR_SHUTTING_DOWN,
                "server is draining; no new requests admitted",
            )
        if len(self._queue) >= self.config.max_queue_depth:
            registry.counter(
                "serve_rejected_total", "Requests rejected by reason"
            ).inc(1, {"kind": ERROR_QUEUE_FULL})
            return error_response(
                request.request_id,
                ERROR_QUEUE_FULL,
                f"queue is at capacity ({self.config.max_queue_depth})",
                retry_after_ms=self._retry_after_ms(),
            )
        now = time.perf_counter()
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.config.default_deadline_ms
        )
        pending = _Pending(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            arrival=now,
            expires=None if deadline_ms is None else now + deadline_ms / 1e3,
        )
        self._queue.append(pending)
        self._wake.set()
        return await pending.future

    def _retry_after_ms(self) -> float:
        """The backpressure hint: when a full queue should have space.

        A full queue drains one ``max_batch`` per window-plus-dispatch;
        suggesting one window per queued batch is deliberately
        pessimistic — clients that come back too early just get
        rejected again.
        """
        batches_queued = max(
            1, -(-len(self._queue) // self.config.max_batch)
        )
        return max(1.0, batches_queued * self.config.batch_window * 1e3)

    # -- batching ------------------------------------------------------

    async def _run(self) -> None:
        """The batcher loop: at most one in-flight batch per engine.

        A formed batch goes to the first idle engine as its own task and
        the loop returns to batch formation, so up to
        ``len(self.engines)`` batches overlap.  With every engine busy
        the loop waits for a completion before it opens the next batch
        window, so with one engine dispatch is strictly sequential and
        queue-depth backpressure works the same at any pool size.  Drain
        waits for every in-flight task (the graceful-drain contract:
        every admitted request gets a real answer).
        """
        loop = asyncio.get_running_loop()
        inflight: dict[int, "asyncio.Task[None]"] = {}
        try:
            while True:
                for idx, task in list(inflight.items()):
                    if task.done():
                        del inflight[idx]
                        task.result()
                idle = [
                    i for i in range(len(self.engines)) if i not in inflight
                ]
                if self._queue and idle:
                    await self._fill_window(loop)
                    batch = [
                        self._queue.popleft()
                        for _ in range(
                            min(len(self._queue), self.config.max_batch)
                        )
                    ]
                    task = loop.create_task(
                        self._dispatch(loop, batch, self.engines[idle[0]])
                    )
                    # A finished batch frees its engine: wake the loop.
                    task.add_done_callback(lambda _: self._wake.set())
                    inflight[idle[0]] = task
                    continue
                if not self._queue and self._draining:
                    return
                # Nothing queued, or no engine free: wait for a request
                # or a finished batch, whichever comes first.
                self._wake.clear()
                await self._wake.wait()
        finally:
            if inflight:
                await asyncio.gather(*inflight.values())

    async def _fill_window(self, loop: asyncio.AbstractEventLoop) -> None:
        """Hold the batch open for ``batch_window`` or until it fills."""
        if self.config.batch_window <= 0 or self._draining:
            return
        closes = loop.time() + self.config.batch_window
        while len(self._queue) < self.config.max_batch and not self._draining:
            remaining = closes - loop.time()
            if remaining <= 0:
                return
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), remaining)
            except asyncio.TimeoutError:
                return

    async def _dispatch(
        self,
        loop: asyncio.AbstractEventLoop,
        batch: list[_Pending],
        engine: BatchAlignmentEngine,
    ) -> None:
        registry = self._registry or get_registry()
        tracer = get_tracer()
        start = time.perf_counter()
        start_us = tracer.now_us() if tracer is not None else 0.0
        registry.histogram(
            "serve_queue_depth",
            "Queued requests at batch formation",
            buckets=QUEUE_DEPTH_BUCKETS,
        ).observe(len(self._queue) + len(batch))

        live: list[_Pending] = []
        expired = 0
        for pending in batch:
            if pending.expires is not None and start >= pending.expires:
                expired += 1
                registry.counter(
                    "serve_rejected_total", "Requests rejected by reason"
                ).inc(1, {"kind": ERROR_DEADLINE})
                pending.future.set_result(
                    error_response(
                        pending.request.request_id,
                        ERROR_DEADLINE,
                        "deadline passed before the request's batch "
                        "dispatched",
                    )
                )
            else:
                live.append(pending)
        if live:
            pairs = [(p.request.pattern, p.request.text) for p in live]
            try:
                result = await loop.run_in_executor(
                    None, engine.align_batch, pairs
                )
            except Exception as exc:  # noqa: BLE001 — the serving boundary
                # Strict engines raise; a server must keep serving, so
                # the failure is fanned out per request instead.
                msg = f"{type(exc).__name__}: {exc}"
                for pending in live:
                    pending.future.set_result(
                        error_response(
                            pending.request.request_id, "backend_error", msg
                        )
                    )
            else:
                self._running = (
                    result.report
                    if self._running is None
                    else merge_batch_reports([self._running, result.report])
                )
                done = time.perf_counter()
                latency = registry.histogram(
                    "serve_request_latency_seconds",
                    "Admission-to-response latency per request",
                )
                for pending, outcome in zip(live, result.outcomes):
                    latency.observe(done - pending.arrival)
                    pending.future.set_result(
                        align_response(pending.request.request_id, outcome)
                    )
        registry.histogram(
            "serve_batch_size",
            "Requests per dispatched batch (expired ones included)",
            buckets=BATCH_SIZE_BUCKETS,
        ).observe(len(batch))
        registry.counter("serve_batches_total", "Micro-batches formed").inc(1)
        if tracer is not None:
            tracer.complete(
                "serve:batch",
                "serve",
                start_us,
                (time.perf_counter() - start) * 1e6,
                args={
                    "requests": len(batch),
                    "dispatched": len(live),
                    "expired": expired,
                },
            )

    # -- stats ---------------------------------------------------------

    def stats_payload(self, request_id: Any) -> dict:
        """The ``stats`` response document (registry + session report)."""
        registry = self._registry or get_registry()
        report = self.session_report()
        return {
            "id": request_id,
            "ok": True,
            "type": "stats",
            "uptime_seconds": time.perf_counter() - self._started,
            "queue_depth": self.queue_depth,
            "metrics": registry.snapshot(),
            "report": None if report is None else report.as_dict(),
        }
