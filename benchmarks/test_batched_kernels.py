"""Cross-pair batched WFA kernels vs the per-pair software engines.

Three measurements on the pure software alignment path (no cycle model):

* **Short-read batch** — the acceptance workload: one chunk of
  distinct short reads, backtrace off.  ``batched`` is timed on exactly
  the same ``align_chunk`` call the engine workers make; ``scalar`` and
  ``vectorized`` are not engine backends, so their aligners
  (:class:`repro.align.WfaAligner`,
  :class:`repro.align.VectorizedWfaAligner`) run the chunk pair by pair
  directly.  The ``batched`` backend must deliver >= 2x the
  pairs/s of ``vectorized`` — the batched kernels amortise numpy
  dispatch over the whole chunk where the per-pair vectorised aligner
  pays it per wavefront.
* **Read-length sweep** (slow) — scalar / vectorized / batched across
  read lengths, showing where each backend wins (scalar at very short
  reads, batched everywhere, vectorized only once wavefronts get wide).
* **Stage profile** — the batched backend run through the engine with
  profiling on, so the per-stage table (pack / compute / extend /
  backtrace / dispatch / ipc) lands next to the throughput numbers.

Every measurement is also written machine-readably to
``benchmarks/results/BENCH_pr2.json`` (pairs/s and GCUPS per backend)
via the ``bench_json`` fixture.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.align import DEFAULT_PENALTIES, VectorizedWfaAligner, WfaAligner
from repro.engine import align_pairs
from repro.engine.backends import get_backend
from repro.reporting import format_table
from repro.workloads import PairGenerator

#: Pairs in the acceptance chunk (distinct; no cache/coalesce effects).
BATCH_PAIRS = int(os.environ.get("REPRO_BATCH_BENCH_PAIRS", "96"))
READ_LEN = 150
ERROR_RATE = 0.05
BACKENDS = ("scalar", "vectorized", "batched")
#: The per-pair aligners, which are not engine backends.
PER_PAIR = {"scalar": WfaAligner, "vectorized": VectorizedWfaAligner}


def _workload(num_pairs: int, length: int, seed: int = 13):
    gen = PairGenerator(length=length, error_rate=ERROR_RATE, seed=seed)
    return gen.batch(num_pairs)


def _chunk_runner(name: str, pairs, backtrace: bool):
    """A call that aligns the whole chunk and returns its scores in order."""
    if name in PER_PAIR:
        def run():
            aligner = PER_PAIR[name](DEFAULT_PENALTIES, keep_backtrace=backtrace)
            return [aligner.align(p.pattern, p.text).score for p in pairs]
        return run

    backend = get_backend(name)
    items = [(i, p.pattern, p.text) for i, p in enumerate(pairs)]

    def run():
        outcomes, _ = backend.align_chunk(items, DEFAULT_PENALTIES, backtrace)
        return [o.score for o in sorted(outcomes, key=lambda o: o.slot)]
    return run


def _measure_chunk(name: str, pairs, *, backtrace: bool = False,
                   repeats: int = 3):
    """Best-of-N timing of one aligner over one whole chunk."""
    run = _chunk_runner(name, pairs, backtrace)
    best = float("inf")
    scores = None
    for _ in range(repeats):
        start = time.perf_counter()
        scores = run()
        best = min(best, time.perf_counter() - start)
    return best, scores


def _stats(pairs, seconds: float) -> dict:
    cells = sum(len(p.pattern) * len(p.text) for p in pairs)
    return {
        "seconds": round(seconds, 6),
        "pairs_per_second": round(len(pairs) / seconds, 1),
        "gcups": round(cells / seconds / 1e9, 6),
    }


def test_batched_beats_vectorized_on_short_reads(report_table, bench_json):
    pairs = _workload(BATCH_PAIRS, READ_LEN)
    results = {}
    scores = {}
    for name in BACKENDS:
        seconds, backend_scores = _measure_chunk(name, pairs)
        results[name] = _stats(pairs, seconds)
        scores[name] = backend_scores

    assert scores["batched"] == scores["scalar"] == scores["vectorized"]

    rows = [
        [name, f"{r['seconds']:.3f}", f"{r['pairs_per_second']:.0f}",
         f"{r['gcups']:.4f}"]
        for name, r in results.items()
    ]
    speedup = (results["batched"]["pairs_per_second"]
               / results["vectorized"]["pairs_per_second"])
    rows.append(["batched / vectorized", f"{speedup:.2f}x", "", ""])
    report_table(format_table(
        ["backend", "seconds", "pairs/s", "GCUPS"],
        rows,
        title=f"Batched kernel throughput: {BATCH_PAIRS} pairs, "
              f"{READ_LEN} bp, {ERROR_RATE:.0%} error, score-only",
    ))

    bench_json("short_read_batch", {
        "workload": {
            "num_pairs": BATCH_PAIRS,
            "read_length": READ_LEN,
            "error_rate": ERROR_RATE,
            "backtrace": False,
        },
        "backends": results,
        "batched_vs_vectorized_speedup": round(speedup, 2),
    })

    assert speedup >= 2.0, (
        f"batched backend only {speedup:.2f}x over vectorized "
        f"(acceptance bar is 2x): {results}"
    )


def test_batched_stage_profile(report_table, bench_json):
    pairs = _workload(BATCH_PAIRS, READ_LEN)
    res = align_pairs(
        pairs, backend="batched", backtrace=True, cache_size=0
    )
    rep = res.report
    for stage in ("pack", "compute", "extend", "backtrace", "dispatch"):
        assert stage in rep.profile, rep.profile
    report_table(
        f"Batched backend stage profile: {BATCH_PAIRS} pairs, "
        f"{READ_LEN} bp, backtrace on\n" + rep.describe_profile()
    )
    bench_json("batched_stage_profile", {
        "workload": {
            "num_pairs": BATCH_PAIRS,
            "read_length": READ_LEN,
            "error_rate": ERROR_RATE,
            "backtrace": True,
        },
        "pairs_per_second": round(rep.pairs_per_second, 1),
        "gcups": round(rep.gcups, 6),
        "stages": rep.profile,
    })


@pytest.mark.slow
def test_read_length_sweep(report_table, bench_json):
    lengths = (60, 150, 400, 1000)
    sweep = {}
    rows = []
    for length in lengths:
        # Keep total work roughly constant across lengths.
        n = max(4, BATCH_PAIRS * READ_LEN // length)
        pairs = _workload(n, length, seed=17 + length)
        per_backend = {}
        scores = {}
        for name in BACKENDS:
            seconds, backend_scores = _measure_chunk(
                name, pairs, repeats=2
            )
            per_backend[name] = _stats(pairs, seconds)
            scores[name] = backend_scores
        assert scores["batched"] == scores["scalar"] == scores["vectorized"]
        sweep[str(length)] = {"num_pairs": n, "backends": per_backend}
        rows.append([
            length, n,
            *(f"{per_backend[b]['pairs_per_second']:.0f}" for b in BACKENDS),
            f"{per_backend['batched']['pairs_per_second'] / per_backend['vectorized']['pairs_per_second']:.2f}x",
        ])
    report_table(format_table(
        ["read len", "pairs", *BACKENDS, "batched/vec"],
        rows,
        title=f"Read-length sweep (pairs/s, {ERROR_RATE:.0%} error, "
              "score-only)",
    ))
    bench_json("read_length_sweep", {
        "error_rate": ERROR_RATE,
        "lengths": sweep,
    })
