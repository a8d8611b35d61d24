"""Cost of the observability layer on the batch-engine hot path.

The metrics registry publishes on every batch unconditionally (plain
dict updates), while tracing is opt-in.  This bench measures both:

* **registry-only** vs **fully-observed** (tracer installed, metrics
  snapshot + run manifest written) wall time on the same workload — the
  fully-observed run must stay within ``MAX_OVERHEAD_RATIO`` of the
  plain run (a loose bar: the point is to catch an accidental O(pairs²)
  regression in the publish path, not to chase noise);
* the standalone cost of one registry snapshot and one manifest
  validation, amortised per batch.

Results go to ``benchmarks/results/BENCH_pr4.json`` with a
schema-validated run manifest written alongside, so this bench
exercises the full artefact path it measures.
"""

from __future__ import annotations

import os
import time

from repro.engine import BatchAlignmentEngine, EngineConfig
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    Tracer,
    get_registry,
    install_tracer,
    set_registry,
    validate_trace_document,
)
from repro.reporting import format_table
from repro.workloads import PairGenerator

from .conftest import RESULTS_DIR

NUM_PAIRS = int(os.environ.get("REPRO_OBS_BENCH_PAIRS", "200"))
READ_LEN = 150
#: Fully-observed may cost at most this multiple of registry-only.
MAX_OVERHEAD_RATIO = 3.0
#: Repetitions per variant; the minimum is reported (noise floor).
REPEATS = 3


def _run_batch(pairs, *, tracer: Tracer | None) -> float:
    previous = install_tracer(tracer) if tracer is not None else None
    start = time.perf_counter()
    try:
        with BatchAlignmentEngine(
            EngineConfig(backend="batched", workers=1, cache_size=0)
        ) as engine:
            engine.align_batch(pairs)
    finally:
        if tracer is not None:
            install_tracer(previous)
    return time.perf_counter() - start


def test_observability_overhead(bench_json_pr4, report_table):
    pairs = PairGenerator(
        length=READ_LEN, error_rate=0.05, seed=7, max_text_length=READ_LEN
    ).batch(NUM_PAIRS)

    plain = observed = float("inf")
    tracer = None
    for _ in range(REPEATS):
        set_registry(MetricsRegistry())
        plain = min(plain, _run_batch(pairs, tracer=None))
        set_registry(MetricsRegistry())
        tracer = Tracer()
        observed = min(observed, _run_batch(pairs, tracer=tracer))
    assert tracer is not None
    validate_trace_document(tracer.to_dict())

    # Standalone artefact costs, measured on the final run's registry.
    registry = get_registry()
    snap_start = time.perf_counter()
    snapshot = registry.snapshot()
    snapshot_seconds = time.perf_counter() - snap_start

    manifest = RunManifest.for_run(
        command=["pytest", "benchmarks/test_observability_overhead.py"],
        config={"backend": "batched", "num_pairs": NUM_PAIRS, "read_len": READ_LEN},
        pairs=pairs,
        dataset_source=f"generated:length={READ_LEN},n={NUM_PAIRS},seed=7",
        seed=7,
        metrics=snapshot,
    )
    manifest_start = time.perf_counter()
    doc = manifest.write(RESULTS_DIR / "BENCH_pr4.manifest.json")
    manifest_seconds = time.perf_counter() - manifest_start

    ratio = observed / plain if plain > 0 else 1.0
    rows = [
        ["registry only (s)", f"{plain:.4f}"],
        ["tracer + snapshot + manifest (s)", f"{observed:.4f}"],
        ["overhead ratio", f"{ratio:.2f}x (bar {MAX_OVERHEAD_RATIO:.1f}x)"],
        ["registry snapshot (s)", f"{snapshot_seconds:.5f}"],
        ["manifest validate+write (s)", f"{manifest_seconds:.5f}"],
        ["trace events", len(tracer.events)],
    ]
    report_table(
        format_table(
            ["quantity", "value"],
            rows,
            title=f"Observability overhead ({NUM_PAIRS} x {READ_LEN} bp, batched)",
        )
    )
    bench_json_pr4(
        "observability_overhead",
        {
            "num_pairs": NUM_PAIRS,
            "read_len": READ_LEN,
            "registry_only_seconds": plain,
            "fully_observed_seconds": observed,
            "overhead_ratio": ratio,
            "snapshot_seconds": snapshot_seconds,
            "manifest_seconds": manifest_seconds,
            "trace_events": len(tracer.events),
            "dataset_fingerprint": doc["run"]["dataset"]["fingerprint"],
        },
    )
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"observability overhead {ratio:.2f}x exceeds {MAX_OVERHEAD_RATIO}x"
    )
