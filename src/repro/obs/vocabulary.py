"""The declared metric vocabulary: every metric name and label key.

``docs/observability.md`` promises operators a *closed* vocabulary —
snapshots from any process merge by ``(name, labels)`` identity
(:func:`repro.obs.metrics.merge_snapshots`), so a typo'd name or an
ad-hoc label key forks a series silently instead of failing.  This
module is the machine-readable half of that promise: ``wfalint``'s
W006 rule holds every ``registry.counter/gauge/histogram`` call site in
``src/`` to these sets (parsing this file, not importing it), and the
docs table and this module must move together.

Adding a metric is a three-line change: the call site, an entry here,
and a row in ``docs/observability.md``.
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES", "LABEL_KEYS"]

#: Every metric name any subsystem may publish.  Grouped as in
#: ``docs/observability.md``: engine, per-stage profiler, accelerator
#: simulator, CPU model, ASIC physical model.
METRIC_NAMES = frozenset({
    # engine (publish_batch_report)
    "engine_batches_total",
    "engine_pairs_total",
    "engine_pairs_aligned_total",
    "engine_cache_hits_total",
    "engine_coalesced_total",
    "engine_errors_total",
    "engine_rejected_total",
    "engine_retries_total",
    "engine_band_fallbacks_total",
    "engine_peak_wavefront_bytes_total",
    "engine_swg_cells_total",
    "engine_batch_seconds",
    "engine_workers",
    # per-stage wall-time (StageProfiler.publish, prefix "engine")
    "engine_stage_seconds_total",
    "engine_stage_calls_total",
    # alignment service (repro.serve: micro-batching admission control)
    "serve_requests_total",
    "serve_rejected_total",
    "serve_batches_total",
    "serve_request_latency_seconds",
    "serve_batch_size",
    "serve_queue_depth",
    # fleet scheduler (publish_fleet_result)
    "fleet_chips",
    "fleet_pairs_total",
    "fleet_unroutable_total",
    "fleet_batches_total",
    "fleet_makespan_cycles_total",
    "fleet_busy_cycles_total",
    # accelerator simulator (publish_accelerator_batch)
    "wfasic_cycles_total",
    "wfasic_makespan_cycles_total",
    "wfasic_batches_total",
    "wfasic_alignments_total",
    # Sargantana CPU model (publish_cpu_cycles)
    "soc_cpu_cycles_total",
    # ASIC physical model (publish_asic_report)
    "wfasic_asic_area_mm2",
    "wfasic_asic_memory_mb",
    "wfasic_asic_power_w",
    "wfasic_asic_frequency_hz",
    "wfasic_asic_memory_macros",
})

#: Every label key any series may carry.  Label *values* are dynamic
#: (backend names, stage names, pair outcomes); the key set is closed.
LABEL_KEYS = frozenset({
    "backend",  # engine_* — which alignment backend served the batch
    "stage",    # *_stage_* and wfasic_cycles_total — pipeline stage
    "success",  # wfasic_alignments_total — hardware Success flag
    "kind",     # soc_cpu_cycles_total / serve_* — activity or request kind
    "chip",     # fleet_busy_cycles_total — chip index inside a fleet
})
