"""The parallel batch alignment engine.

This is the software serving layer the ROADMAP's scaling PRs build on:
where the paper instantiates up to 64 hardware aligner sections, the
engine shards a batch of sequence pairs across a ``multiprocessing``
worker pool.  The moving parts, in dispatch order:

1. **Cache resolve** — each pair is looked up in the engine's own LRU,
   keyed on ``(pattern, text)`` (the engine's frozen config fixes
   everything else); hits never reach a worker.
2. **Coalescing** — duplicate misses *within* the batch are collapsed to
   one work item; every duplicate is answered from the first result.
3. **Chunked dispatch** — remaining unique items are grouped into chunks
   of ``chunk_size`` pairs to amortise IPC and handed to the pool; with
   ``workers=1`` the chunk runs in-process with zero IPC.  On the
   parallel path each chunk (its pairs as plain strings) is pickled to
   a worker and its outcomes are pickled back.
4. **Gather + counters** — outcomes are re-ordered to input order and a
   :class:`BatchReport` is filled in: pairs/s, GCUPS (via
   :mod:`repro.metrics.cups`, SWG-equivalent cells so the numbers are
   comparable with the paper's Table 2), cache hit rate and per-worker
   utilisation.

The engine is **fault-isolating** end to end, mirroring the paper's
verification campaign ("sends data in unexpected formats and checks the
CPU does not hang", §5.1): a validation/normalization pass runs before
step 1 (see :mod:`repro.engine.validation`), workers isolate backend
exceptions per pair, and the parallel path survives chunk timeouts and
worker death through bounded resubmission, then per-pair quarantine.
One malformed pair yields one errored :class:`PairOutcome`; it never
costs the batch.  ``EngineConfig.strict`` restores raise-on-first-error
for tests.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from ..align.penalties import AffinePenalties, DEFAULT_PENALTIES
from ..align.profile import StageProfiler, format_profile
from ..metrics.cups import gcups, swg_equivalent_cells
from ..obs.publish import publish_batch_report
from ..obs.trace import get_tracer
from ..workloads.generator import SequencePair
from .backends import (
    AlignmentBackend,
    PairItem,
    PairOutcome,
    backend_names,
    get_backend,
)
from .cache import AlignmentCache
from .validation import (
    ERROR_BACKEND,
    ERROR_INVALID_BASE,
    ERROR_TIMEOUT,
    ERROR_UNSUPPORTED_READ,
    ERROR_WORKER_LOST,
    classify_pair,
    normalize_pair,
)

__all__ = [
    "EngineConfig",
    "WorkerStats",
    "BatchReport",
    "EngineResult",
    "BatchAlignmentEngine",
    "align_pairs",
    "merge_batch_reports",
]


#: The engine's own stages, in order.  They partition a batch's wall
#: time; every other profile stage runs inside ``execute``.
ENGINE_STAGES = ("resolve", "dispatch", "execute", "gather")


@dataclass(frozen=True)
class EngineConfig:
    """Static configuration of one engine instance.

    Attributes
    ----------
    backend:
        Name of a registered backend (``batched``, the default and the
        software WFA; ``swg``, the DP oracle; ``wfasic``, the
        accelerator simulator; or anything added via
        :func:`repro.engine.register_backend`).
    workers:
        Worker processes.  ``1`` (the default) runs everything
        in-process — the serial path, with no pool and no IPC.
    chunk_size:
        Pairs per dispatched chunk, and so the lockstep width of the
        ``batched`` aligner.  Larger chunks amortise IPC and per-step
        cost but reduce load-balancing granularity and hold more
        wavefronts at once.
    penalties:
        Gap-affine penalties applied to every pair.
    backtrace:
        Whether CIGARs are recovered (and cached) alongside scores.
    cache_size:
        LRU capacity in outcomes; ``0`` disables result caching.
    strict:
        ``True`` restores raise-on-first-error (for tests and debugging):
        validation rejections raise :class:`ValueError` and backend or
        pool failures propagate instead of becoming per-pair errored
        outcomes.  Unsupported reads (the §4.2 hardware policy) are a
        well-formed answer and stay per-pair even in strict mode.
    chunk_timeout:
        Seconds to wait for one dispatched chunk before treating it as
        lost (hung backend or dead worker); ``None`` waits forever.
        Only the parallel path uses it.
    max_chunk_retries:
        Resubmissions attempted for a lost chunk before it is
        quarantined pair by pair, one disposable process per pair.
    band_width:
        Adaptive wavefront band for long reads (``docs/long-reads.md``):
        the band-capable backend (``batched``) trims every
        wavefront to this many diagonals, re-centred each step on the
        furthest-reaching cell, so peak wavefront memory is
        O(band × score) instead of O(length × score).  Results are
        bit-identical to exact WFA whenever the optimal path stays in
        the band; a pair whose band dies out before the end
        (``reached_end=False``) is transparently re-aligned exact and
        counted in :attr:`BatchReport.band_fallbacks`.  A band narrower
        than the alignment's diagonal drift can instead converge at a
        pessimistic — never optimistic — score, so size the band from
        the expected indel imbalance.  ``None`` (default) disables
        banding; only backends declaring ``supports_band`` accept it.
    """

    backend: str = "batched"
    workers: int = 1
    chunk_size: int = 16
    penalties: AffinePenalties = field(default_factory=lambda: DEFAULT_PENALTIES)
    backtrace: bool = False
    cache_size: int = 4096
    strict: bool = False
    chunk_timeout: float | None = 300.0
    max_chunk_retries: int = 1
    band_width: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in backend_names():
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"available: {', '.join(backend_names())}"
            )
        if self.band_width is not None:
            if self.band_width < 1:
                raise ValueError("band_width must be >= 1 (or None)")
            if not get_backend(self.backend).supports_band:
                raise ValueError(
                    f"backend {self.backend!r} does not support band_width; "
                    "band-capable backends: "
                    + ", ".join(
                        name
                        for name in backend_names()
                        if get_backend(name).supports_band
                    )
                )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be > 0 (or None)")
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")


@dataclass
class WorkerStats:
    """Per-worker accounting for one batch."""

    worker_id: int
    chunks: int = 0
    pairs: int = 0
    busy_seconds: float = 0.0


@dataclass
class BatchReport:
    """Throughput/latency counters for one batch."""

    backend: str
    workers: int
    num_pairs: int
    #: Pairs actually aligned by a backend (after cache hits + coalescing);
    #: a read the backend answered unsupported is not counted.
    pairs_aligned: int
    cache_hits: int
    #: Within-batch duplicates answered from another item's result.
    coalesced: int
    elapsed_seconds: float
    #: SWG-equivalent DP cells of the batch's *served* pairs (cache hits
    #: included: the engine served them, whatever the mechanism).  Pairs
    #: without an alignment — rejected or errored at the engine level, or
    #: answered unsupported (``success=False``) by a backend such as
    #: ``wfasic`` — are excluded, so GCUPS never counts work that was not
    #: done.
    swg_cells: int
    #: Pairs whose outcome is an engine error (``ok=False``: validation
    #: rejection, backend exception, chunk timeout, lost worker).
    errors: int = 0
    #: Pairs stopped at the validation boundary (invalid charset, plus
    #: unsupported reads under the shared §4.2 policy) — never dispatched.
    rejected: int = 0
    #: Chunk resubmissions performed after timeouts / worker death.
    retries: int = 0
    #: Pairs whose banded first pass died out before reaching the end
    #: (``reached_end=False``) and were transparently re-aligned exact
    #: (``EngineConfig.band_width``).  Always 0 when banding is off.
    band_fallbacks: int = 0
    #: Sum over aligned pairs of each pair's peak live wavefront bytes
    #: (``BYTES_PER_CELL`` per stored cell) as reported by band-capable
    #: backends — the capacity-planning number behind adaptive banding.
    #: 0 when the backend does not report it.  Like ``band_fallbacks``,
    #: summed from the backends' :class:`PairOutcome` work counters.
    peak_wavefront_bytes: int = 0
    worker_stats: list[WorkerStats] = field(default_factory=list)
    #: Timed stages only (:meth:`StageProfiler.as_dict`): the engine's
    #: ``resolve``/``dispatch``/``execute``/``ipc``/``gather`` merged
    #: with whatever the backend timed per chunk (``pack``/``compute``/
    #: ``extend``/``backtrace``/``retire`` for the batched backend).
    #: The stage definitions are in ``docs/observability.md``.
    profile: dict = field(default_factory=dict)

    @property
    def pairs_per_second(self) -> float:
        """Pairs served per wall-clock second."""
        return self.num_pairs / max(self.elapsed_seconds, 1e-9)

    @property
    def gcups(self) -> float:
        """Serving-equivalent GCUPS (Table 2 sense) of the batch."""
        return gcups(self.swg_cells, max(self.elapsed_seconds, 1e-9))

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submitted pairs served from the LRU cache."""
        return self.cache_hits / self.num_pairs if self.num_pairs else 0.0

    @property
    def worker_utilisation(self) -> float:
        """Mean fraction of the batch wall-time the workers were busy."""
        busy = sum(w.busy_seconds for w in self.worker_stats)
        return busy / max(self.elapsed_seconds * self.workers, 1e-9)

    def describe(self) -> str:
        """Multi-line human-readable summary (the CLI footer)."""
        lines = [
            f"backend={self.backend} workers={self.workers}",
            f"pairs={self.num_pairs} aligned={self.pairs_aligned} "
            f"cache_hits={self.cache_hits} coalesced={self.coalesced}",
            f"errors={self.errors} rejected={self.rejected} "
            f"retries={self.retries}",
            f"elapsed={self.elapsed_seconds:.3f}s "
            f"throughput={self.pairs_per_second:.1f} pairs/s "
            f"gcups={self.gcups:.4f}",
            f"cache_hit_rate={self.cache_hit_rate:.1%} "
            f"worker_utilisation={self.worker_utilisation:.1%}",
        ]
        return "\n".join(lines)

    def describe_profile(self) -> str:
        """The per-stage breakdown (the CLI ``--profile`` footer).

        The engine's own stages (:data:`ENGINE_STAGES`) are shares of
        ``elapsed_seconds``, with an ``unaccounted`` remainder; ``ipc``
        and the backend's stages ran inside ``execute`` and are shown
        as parts of it.  With more than one worker the backend's stages
        are summed over the workers, so they can add up to more than
        ``execute``.
        """
        return format_profile(
            self.profile, self.elapsed_seconds, ENGINE_STAGES, "execute"
        )

    def as_dict(self) -> dict:
        """JSON-friendly view (the CLI ``--format json`` summary)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "num_pairs": self.num_pairs,
            "pairs_aligned": self.pairs_aligned,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "errors": self.errors,
            "rejected": self.rejected,
            "retries": self.retries,
            "band_fallbacks": self.band_fallbacks,
            "peak_wavefront_bytes": self.peak_wavefront_bytes,
            "swg_cells": self.swg_cells,
            "elapsed_seconds": self.elapsed_seconds,
            "pairs_per_second": self.pairs_per_second,
            "gcups": self.gcups,
            "cache_hit_rate": self.cache_hit_rate,
            "worker_utilisation": self.worker_utilisation,
            "workers_busy_seconds": {
                str(w.worker_id): w.busy_seconds for w in self.worker_stats
            },
            "profile": self.profile,
        }


@dataclass
class EngineResult:
    """Outcome of one :meth:`BatchAlignmentEngine.align_batch` call."""

    #: One outcome per input pair, in input order (``slot`` = input index).
    outcomes: list[PairOutcome]
    report: BatchReport

    @property
    def scores(self) -> list[int]:
        """Alignment scores in input order."""
        return [o.score for o in self.outcomes]


#: What crosses the process boundary for one chunk: backend, penalties,
#: backtrace, strict, band width and the items (``payload[-1]``).
ChunkPayload = tuple[str, AffinePenalties, bool, bool, "int | None", list[PairItem]]


def _run_items_isolated(
    backend: AlignmentBackend,
    items: list[PairItem],
    penalties: AffinePenalties,
    backtrace: bool,
    band_width: int | None,
) -> tuple[list[PairOutcome], dict | None]:
    """Re-run a poisoned chunk pair-at-a-time, trapping each failure.

    One bad pair yields one errored outcome; every other pair of the
    chunk still gets its real result (the fault-isolation invariant),
    under the chunk's own band.  The replayed pairs' profiles are merged
    into one, so their stage times still reach the batch report.
    """
    outcomes: list[PairOutcome] = []
    profiler = StageProfiler()
    for item in items:
        try:
            item_outcomes, profile = backend.align_chunk(
                [item], penalties, backtrace, band_width
            )
        except Exception as exc:  # noqa: BLE001 — the isolation boundary
            outcomes.append(
                PairOutcome.error(
                    item[0], ERROR_BACKEND, f"{type(exc).__name__}: {exc}"
                )
            )
            continue
        outcomes.extend(item_outcomes)
        profiler.merge(profile)
    return outcomes, profiler.as_dict() or None


#: What comes back per chunk: worker OS pid, the ``perf_counter`` stamp
#: when the chunk started (comparable across processes on Linux, where
#: ``perf_counter`` is the system-wide ``CLOCK_MONOTONIC``), the busy
#: seconds, the outcomes and the backend's optional stage profile.
ChunkResult = tuple[int, float, float, list[PairOutcome], "dict | None"]


def _run_chunk(payload: ChunkPayload) -> ChunkResult:
    """Worker-side chunk execution (must stay module-level: picklable).

    The whole chunk is tried first (one kernel dispatch, the fast path);
    if the backend throws, the chunk is replayed pair-at-a-time so only
    the offending pair errors.  With ``strict`` the exception propagates
    to the caller instead.
    """
    backend_name, penalties, backtrace, strict, band_width, items = payload
    start = time.perf_counter()
    backend = get_backend(backend_name)
    try:
        outcomes, profile = backend.align_chunk(
            items, penalties, backtrace, band_width
        )
    except Exception:
        if strict:
            raise
        outcomes, profile = _run_items_isolated(
            backend, items, penalties, backtrace, band_width
        )
    return os.getpid(), start, time.perf_counter() - start, outcomes, profile


def _quarantine_entry(
    payload: ChunkPayload, queue: "multiprocessing.queues.Queue[list[PairOutcome]]"
) -> None:
    """Entry point of a quarantine process: one pair, result via queue."""
    _, _, _, outcomes, _ = _run_chunk(payload)
    queue.put(outcomes)


def _run_item_quarantined(
    payload: ChunkPayload, timeout: float | None
) -> PairOutcome:
    """Run a single-pair chunk in a disposable process.

    Survives anything the pair can do: a Python exception becomes a
    ``backend_error`` outcome (inside :func:`_run_chunk`), a hang is
    terminated after ``timeout`` and a process death is reported as
    ``worker_lost`` — the engine process is never at risk.
    """
    (slot, _, _), = payload[-1]
    ctx = multiprocessing.get_context()
    result_queue = ctx.Queue()
    proc = ctx.Process(
        target=_quarantine_entry, args=(payload, result_queue), daemon=True
    )
    proc.start()
    try:
        proc.join(timeout)
        if proc.is_alive():
            return PairOutcome.error(
                slot, ERROR_TIMEOUT, f"pair exceeded the {timeout}s chunk timeout"
            )
        try:
            # The queue feeder thread may still be flushing right after
            # exit; a short grace get covers that race.
            outcomes = result_queue.get(timeout=5.0)
        except Exception:  # noqa: BLE001 — queue.Empty
            return PairOutcome.error(
                slot,
                ERROR_WORKER_LOST,
                f"worker process died (exit code {proc.exitcode})",
            )
        return outcomes[0]
    finally:
        if proc.is_alive():
            proc.terminate()
            proc.join()
        result_queue.close()


def _as_sequences(pair: SequencePair | tuple[str, str]) -> tuple[str, str]:
    if isinstance(pair, SequencePair):
        return pair.pattern, pair.text
    pattern, text = pair
    return pattern, text


class BatchAlignmentEngine:
    """Shard a stream of sequence pairs across a worker pool.

    The pool is created lazily on the first parallel batch and reused
    across batches (fork cost is paid once); :meth:`close` — or use as a
    context manager — tears it down.  The result cache likewise persists
    across batches, which is exactly what a long-lived serving process
    wants; it belongs to this engine alone and is keyed on the pair, as
    the frozen config fixes everything else an outcome depends on.
    """

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.cache = AlignmentCache(self.config.cache_size)
        self._pool: multiprocessing.pool.Pool | None = None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "BatchAlignmentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            self._pool = multiprocessing.get_context().Pool(self.config.workers)
        return self._pool

    def _reset_pool(self) -> None:
        """Tear the pool down hard (hung workers included)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    # -- execution -----------------------------------------------------

    def align_batch(
        self, pairs: Sequence[SequencePair | tuple[str, str]]
    ) -> EngineResult:
        """Align a batch (``SequencePair`` objects or ``(a, b)`` tuples).

        Returns outcomes in input order plus the batch counters.  Never
        raises for per-pair *data* errors unless ``strict``; non-``str``
        sequences are programming errors and raise :class:`TypeError`
        regardless.
        """
        cfg = self.config
        start = time.perf_counter()
        tracer = get_tracer()
        # One clock pair per engine stage feeds the profile and the span.
        prof = StageProfiler(tracer)
        batch_start_us = tracer.now_us() if tracer is not None else 0.0

        outcomes: list[PairOutcome | None] = [None] * len(pairs)
        cache_hits = 0
        rejected = 0
        pending: dict[tuple[str, str], list[int]] = {}
        work_items: list[PairItem] = []
        sequences: list[tuple[str, str]] = []

        # 0/1/2 -- validate + normalize, cache resolve, coalescing.
        with prof.stage("resolve"):
            for idx, pair in enumerate(pairs):
                pattern, text = normalize_pair(idx, *_as_sequences(pair))
                sequences.append((pattern, text))
                verdict = classify_pair(pattern, text)
                if verdict is not None:
                    kind, msg = verdict
                    if kind == ERROR_INVALID_BASE:
                        if cfg.strict:
                            raise ValueError(f"pair {idx}: {msg}")
                        outcomes[idx] = PairOutcome.error(idx, kind, msg)
                    else:
                        outcomes[idx] = PairOutcome.unsupported(idx, kind, msg)
                    rejected += 1
                    continue
                key = (pattern, text)
                cached = self.cache.get(key)
                if cached is not None:
                    score, success, cigar = cached
                    outcomes[idx] = PairOutcome(idx, score, success, cigar)
                    cache_hits += 1
                    continue
                waiters = pending.get(key)
                if waiters is not None:
                    waiters.append(idx)
                    continue
                pending[key] = [idx]
                # The slot of a work item is its position in work_items, so
                # unordered gathers index straight back into the key list.
                work_items.append((len(work_items), pattern, text))
        keys_in_order = list(pending)
        coalesced = sum(len(w) - 1 for w in pending.values())

        # 3 -- chunked dispatch (fault-tolerant on the parallel path).
        worker_stats: dict[int, WorkerStats] = {}
        chunk_results: list[ChunkResult] = []
        retries = 0
        if work_items:
            with prof.stage("dispatch"):
                payloads: list[ChunkPayload] = [
                    (
                        cfg.backend,
                        cfg.penalties,
                        cfg.backtrace,
                        cfg.strict,
                        cfg.band_width,
                        work_items[off : off + cfg.chunk_size],
                    )
                    for off in range(0, len(work_items), cfg.chunk_size)
                ]
            with prof.stage(
                "execute",
                calls=len(payloads),
                args={"chunks": len(payloads), "backend": cfg.backend},
            ):
                if cfg.workers == 1:
                    chunk_results = [_run_chunk(p) for p in payloads]
                else:
                    chunk_results, retries = self._dispatch_parallel(payloads)
            busy_total = sum(busy for _, _, busy, _, _ in chunk_results)
            # IPC/queueing: parallel-region wall-time not accounted
            # to any worker.  With workers=1 the chunks run
            # in-process, so this is ~0.
            prof.add(
                "ipc",
                max(0.0, prof.stages["execute"].seconds - busy_total),
                calls=len(payloads),
            )

        # 4 -- gather, fill the cache, fan results out to duplicates.
        worker_lanes: dict[int, int] = {}
        band_fallbacks = peak_wavefront_bytes = pairs_aligned = 0
        with prof.stage("gather"):
            for worker_id, chunk_start, busy, chunk_outcomes, chunk_profile in (
                chunk_results
            ):
                stats = worker_stats.setdefault(worker_id, WorkerStats(worker_id))
                stats.chunks += 1
                stats.pairs += len(chunk_outcomes)
                stats.busy_seconds += busy
                prof.merge(chunk_profile)
                if tracer is not None:
                    lane = worker_lanes.setdefault(worker_id, len(worker_lanes) + 1)
                    tracer.name_thread(1, lane, f"worker {worker_id}")
                    tracer.complete(
                        f"chunk ({len(chunk_outcomes)} pairs)",
                        "engine:chunk",
                        tracer.perf_to_us(chunk_start),
                        busy * 1e6,
                        tid=lane,
                        args={
                            "pairs": len(chunk_outcomes),
                            "backend": cfg.backend,
                            "worker_pid": worker_id,
                        },
                    )
                for outcome in chunk_outcomes:
                    # A read the backend answered unsupported was not aligned.
                    pairs_aligned += outcome.error_kind != ERROR_UNSUPPORTED_READ
                    band_fallbacks += outcome.band_fallback
                    peak_wavefront_bytes += outcome.peak_wavefront_bytes
                    key = keys_in_order[outcome.slot]
                    self.cache.put_outcome(key, outcome)
                    for idx in pending[key]:
                        outcomes[idx] = replace(outcome, slot=idx)

        elapsed = time.perf_counter() - start
        assert all(o is not None for o in outcomes), "engine lost a pair"
        errors = sum(1 for o in outcomes if not o.ok)
        report = BatchReport(
            backend=cfg.backend,
            workers=cfg.workers,
            num_pairs=len(sequences),
            pairs_aligned=pairs_aligned,
            cache_hits=cache_hits,
            coalesced=coalesced,
            errors=errors,
            rejected=rejected,
            retries=retries,
            elapsed_seconds=elapsed,
            swg_cells=sum(
                swg_equivalent_cells(len(a), len(b))
                for (a, b), o in zip(sequences, outcomes)
                # Aligned pairs only: rejects, errors and unsupported
                # reads did no work.
                if o.success
            ),
            band_fallbacks=band_fallbacks,
            peak_wavefront_bytes=peak_wavefront_bytes,
            worker_stats=sorted(worker_stats.values(), key=lambda w: w.worker_id),
            profile=prof.as_dict(),
        )
        # Publish through the observability layer: counters reconcile
        # field-for-field with the report, and the batch becomes one
        # span on the trace timeline.
        publish_batch_report(report)
        if tracer is not None:
            tracer.complete(
                "batch",
                "engine",
                batch_start_us,
                elapsed * 1e6,
                args={
                    "backend": cfg.backend,
                    "pairs": report.num_pairs,
                    "cache_hits": report.cache_hits,
                    "errors": report.errors,
                },
            )
        return EngineResult(outcomes=list(outcomes), report=report)

    # -- fault-tolerant parallel dispatch ------------------------------

    def _dispatch_parallel(
        self, payloads: list[ChunkPayload]
    ) -> tuple[list[ChunkResult], int]:
        """Run chunks on the pool, surviving timeouts and worker death.

        Every chunk is submitted up front; each is then gathered with
        ``chunk_timeout``.  A chunk whose result never arrives — hung
        backend, or a worker that died and took the task with it (the
        pool respawns the *worker*, but the task is lost) — is
        resubmitted up to ``max_chunk_retries`` times, then quarantined
        pair by pair (:meth:`_degrade_chunk`): a hanging pair answers
        ``timeout``, a pair that kills its process answers
        ``worker_lost``, and every other pair gets its real result.  If
        the pool cannot be created at all, the whole batch runs
        in-process.
        Returns the chunk results (in payload order) plus the
        resubmission count.
        """
        cfg = self.config
        retries = 0
        results: list[ChunkResult] = []
        try:
            pool = self._ensure_pool()
        except OSError:
            if cfg.strict:
                raise
            # Pool unusable: graceful degradation to in-process execution.
            return [_run_chunk(p) for p in payloads], retries

        handles = [
            (payload, pool.apply_async(_run_chunk, (payload,)))
            for payload in payloads
        ]
        saw_timeout = False
        for payload, handle in handles:
            attempts = 0
            while True:
                try:
                    results.append(handle.get(cfg.chunk_timeout))
                    break
                except Exception as exc:  # noqa: BLE001 — pool boundary
                    saw_timeout |= isinstance(exc, multiprocessing.TimeoutError)
                    if cfg.strict:
                        raise
                    if attempts < cfg.max_chunk_retries:
                        attempts += 1
                        retries += 1
                        handle = pool.apply_async(_run_chunk, (payload,))
                        continue
                    results.append(self._degrade_chunk(payload))
                    break
        if saw_timeout:
            # Hung workers may still occupy pool slots; start clean next
            # batch rather than inheriting a crippled pool.
            self._reset_pool()
        return results, retries

    def _degrade_chunk(self, payload: ChunkPayload) -> ChunkResult:
        """Last resort for a chunk the pool kept losing.

        The chunk is replayed pair-at-a-time, each pair in its own
        disposable *quarantine* process: a pair that hangs or kills its
        process errors alone (``timeout`` / ``worker_lost``) while every
        healthy pair of the chunk still comes back with its real result.
        Running the chunk in the engine process instead would risk the
        engine itself on exactly the input that already killed a worker.
        """
        start = time.perf_counter()
        outcomes = [
            _run_item_quarantined(
                (*payload[:-1], [item]), self.config.chunk_timeout
            )
            for item in payload[-1]
        ]
        return os.getpid(), start, time.perf_counter() - start, outcomes, None


def align_pairs(
    pairs: Sequence[SequencePair | tuple[str, str]], **options: Any
) -> EngineResult:
    """One-shot convenience wrapper around :class:`BatchAlignmentEngine`.

    ``options`` are :class:`EngineConfig` fields, with its defaults.
    """
    with BatchAlignmentEngine(EngineConfig(**options)) as engine:
        return engine.align_batch(pairs)


def merge_batch_reports(
    reports: Sequence[BatchReport], *, wall_seconds: float | None = None
) -> BatchReport:
    """Fold the per-batch reports of a long-lived session into one summary.

    The CLI's streaming ingestion path (``--stream-chunk``) and the
    serving layer (``repro-wfasic serve``) align one bounded batch at a
    time through a single long-lived engine; this combines their reports
    as if the session had been one batch: counters and profiles sum,
    worker busy-time merges per worker, and the derived rates (pairs/s,
    GCUPS, utilisation) fall out of the summed fields.

    ``wall_seconds`` is the session's *wall-clock span*, measured by the
    caller around the whole run, and is what ``elapsed_seconds`` (and so
    every derived rate) is set to when given.  The fallback — summing
    the per-batch wall-times — is only correct when batches are strictly
    serial and back-to-back: the moment two batches overlap in time
    (a concurrent server) or idle gaps sit between them, the sum deflates
    or inflates pairs/s, GCUPS and worker utilisation.  Callers that
    know their span should always pass it; the sum remains the
    documented fallback for plain serial merges with no clock of their
    own.  Raises :class:`ValueError` on an empty sequence or a negative
    ``wall_seconds``.
    """
    if not reports:
        raise ValueError("merge_batch_reports needs at least one report")
    if wall_seconds is not None and wall_seconds < 0:
        raise ValueError("wall_seconds must be >= 0 (or None)")
    first = reports[0]
    profile = StageProfiler()
    workers: dict[int, WorkerStats] = {}
    for rep in reports:
        profile.merge(rep.profile)
        for ws in rep.worker_stats:
            merged = workers.setdefault(ws.worker_id, WorkerStats(ws.worker_id))
            merged.chunks += ws.chunks
            merged.pairs += ws.pairs
            merged.busy_seconds += ws.busy_seconds
    return BatchReport(
        backend=first.backend,
        workers=first.workers,
        num_pairs=sum(r.num_pairs for r in reports),
        pairs_aligned=sum(r.pairs_aligned for r in reports),
        cache_hits=sum(r.cache_hits for r in reports),
        coalesced=sum(r.coalesced for r in reports),
        errors=sum(r.errors for r in reports),
        rejected=sum(r.rejected for r in reports),
        retries=sum(r.retries for r in reports),
        band_fallbacks=sum(r.band_fallbacks for r in reports),
        peak_wavefront_bytes=sum(r.peak_wavefront_bytes for r in reports),
        elapsed_seconds=(
            wall_seconds
            if wall_seconds is not None
            else sum(r.elapsed_seconds for r in reports)
        ),
        swg_cells=sum(r.swg_cells for r in reports),
        worker_stats=sorted(workers.values(), key=lambda w: w.worker_id),
        profile=profile.as_dict(),
    )
