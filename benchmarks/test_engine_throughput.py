"""Serial vs parallel batch-engine throughput.

Two measurements on the software serving layer:

* **Serving mix** — a realistic request stream (each unique pair
  requested several times, as production frontends see from repeated
  queries and retries).  The engine with >= 2 workers, coalescing and the
  LRU cache must beat the pre-engine serial path (a plain per-pair
  aligner loop, exactly what ``repro.cli align --engine cpu-*`` did
  before the engine existed).  This is the PR's acceptance measurement.
* **Unique-pair scaling** — all-distinct pairs, engine at 1 vs 2
  workers, each engine warmed by one batch so the pool's one-time fork
  is not timed.  This isolates pure process parallelism; the speedup is
  bounded by the machine's core count (on a single-core runner it is
  ~1x and is reported, not asserted).
"""

from __future__ import annotations

import os
import time

from repro.align import DEFAULT_PENALTIES, WfaAligner
from repro.engine import BatchAlignmentEngine, EngineConfig
from repro.reporting import format_table
from repro.workloads import PairGenerator

#: Requests in the serving mix (>= 200 per the acceptance criterion).
NUM_REQUESTS = int(os.environ.get("REPRO_ENGINE_BENCH_REQUESTS", "240"))
UNIQUE_PAIRS = NUM_REQUESTS // 4
READ_LEN = 150
ERROR_RATE = 0.10


def _serving_mix() -> list:
    gen = PairGenerator(length=READ_LEN, error_rate=ERROR_RATE, seed=7)
    unique = gen.batch(UNIQUE_PAIRS)
    return [unique[i % UNIQUE_PAIRS] for i in range(NUM_REQUESTS)]


def _serial_loop(pairs) -> tuple[float, list[int]]:
    """The pre-engine path: one process, one aligner call per request."""
    aligner = WfaAligner(DEFAULT_PENALTIES, keep_backtrace=False)
    start = time.perf_counter()
    scores = [aligner.align(p.pattern, p.text).score for p in pairs]
    return time.perf_counter() - start, scores


def test_engine_beats_serial_on_serving_mix(report_table):
    requests = _serving_mix()
    serial_elapsed, serial_scores = _serial_loop(requests)

    config = EngineConfig(
        backend="batched", workers=2, chunk_size=16, cache_size=4096
    )
    with BatchAlignmentEngine(config) as engine:
        result = engine.align_batch(requests)

    assert result.scores == serial_scores
    rep = result.report
    rows = [
        ["serial loop (pre-engine)", f"{serial_elapsed:.3f}",
         f"{NUM_REQUESTS / serial_elapsed:.0f}", "-", "-"],
        [f"engine ({rep.workers} workers + cache)",
         f"{rep.elapsed_seconds:.3f}", f"{rep.pairs_per_second:.0f}",
         f"{(rep.cache_hits + rep.coalesced) / rep.num_pairs:.0%}",
         f"{rep.worker_utilisation:.0%}"],
        ["speedup", f"{serial_elapsed / rep.elapsed_seconds:.2f}x", "", "", ""],
    ]
    report_table(format_table(
        ["path", "seconds", "pairs/s", "dup served", "worker util"],
        rows,
        title=f"Engine serving mix: {NUM_REQUESTS} requests "
              f"({UNIQUE_PAIRS} unique, {READ_LEN} bp, "
              f"{ERROR_RATE:.0%} error, batched backend)",
    ))
    assert rep.elapsed_seconds < serial_elapsed, (
        f"engine ({rep.elapsed_seconds:.3f}s) did not beat the serial "
        f"path ({serial_elapsed:.3f}s)"
    )


def test_unique_pair_scaling(report_table):
    gen = PairGenerator(length=READ_LEN, error_rate=ERROR_RATE, seed=11)
    pairs = gen.batch(max(200, NUM_REQUESTS) // 2)

    timings = {}
    scores = {}
    for workers in (1, 2):
        config = EngineConfig(
            backend="batched", workers=workers, chunk_size=16, cache_size=0
        )
        with BatchAlignmentEngine(config) as engine:
            # Warm-up: the pool forks once per engine, not per batch.
            engine.align_batch(pairs[:1])
            result = engine.align_batch(pairs)
        timings[workers] = result.report.elapsed_seconds
        scores[workers] = result.scores

    assert scores[1] == scores[2]
    cores = os.cpu_count() or 1
    rows = [
        ["1 worker (in-process)", f"{timings[1]:.3f}",
         f"{len(pairs) / timings[1]:.0f}"],
        ["2 workers (pool)", f"{timings[2]:.3f}",
         f"{len(pairs) / timings[2]:.0f}"],
        [f"speedup (on {cores} core(s))",
         f"{timings[1] / timings[2]:.2f}x", ""],
    ]
    report_table(format_table(
        ["engine", "seconds", "pairs/s"],
        rows,
        title=f"Engine unique-pair scaling: {len(pairs)} distinct pairs "
              f"({READ_LEN} bp, {ERROR_RATE:.0%} error, batched backend)",
    ))
    # Pure process parallelism is core-count bound; only sanity-check
    # that the pool path is not pathologically slower than in-process.
    assert timings[2] < timings[1] * (3.0 if cores == 1 else 1.2)
