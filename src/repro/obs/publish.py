"""Publishing helpers: one call per subsystem to light up the registry.

Instrumentation sites throughout the repository (the batch engine, the
``wfasic`` simulator, the Sargantana CPU model, the ASIC physical
model) each call one function here instead of hand-rolling metric
updates.  Everything publishes to the process-default
:class:`~repro.obs.metrics.MetricsRegistry` and, when a tracer is
installed (:func:`repro.obs.trace.install_tracer`), also emits trace
spans.  The functions take the existing result objects duck-typed
(``BatchReport``, ``BatchResult``, ``AsicReport``) so this module
imports nothing from the packages it observes — the observability layer
sits below everyone.

The metric vocabulary emitted here is the reference list in
``docs/observability.md``; add a metric there when you add one here.
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry, get_registry
from .trace import COLLECTOR_TID, Tracer, get_tracer

__all__ = [
    "publish_batch_report",
    "publish_accelerator_batch",
    "publish_cpu_cycles",
    "publish_asic_report",
    "publish_fleet_result",
]


def publish_batch_report(
    report: Any, registry: MetricsRegistry | None = None
) -> None:
    """Publish one engine :class:`~repro.engine.BatchReport`.

    Counters reconcile field-for-field with the report (the CLI
    round-trip test asserts exact equality): ``engine_pairs_total`` ==
    ``num_pairs``, ``engine_cache_hits_total`` == ``cache_hits`` and so
    on, all labelled by backend.  Each ``report.profile`` stage adds
    its seconds and calls to ``engine_stage_seconds_total`` and
    ``engine_stage_calls_total``, labelled by stage and backend.
    """
    reg = registry or get_registry()
    labels = {"backend": report.backend}
    reg.counter("engine_batches_total", "Batches executed").inc(1, labels)
    for counter, help_text, value in (
        ("engine_pairs_total", "Pairs submitted", report.num_pairs),
        ("engine_pairs_aligned_total", "Pairs a backend aligned", report.pairs_aligned),
        ("engine_cache_hits_total", "Pairs served from the LRU", report.cache_hits),
        ("engine_coalesced_total", "Within-batch duplicate pairs", report.coalesced),
        ("engine_errors_total", "Pairs with an engine error", report.errors),
        ("engine_rejected_total", "Pairs stopped at validation", report.rejected),
        ("engine_retries_total", "Chunk resubmissions", report.retries),
        ("engine_band_fallbacks_total", "Banded pairs re-aligned exact", report.band_fallbacks),
        ("engine_peak_wavefront_bytes_total", "Per-pair peak wavefront bytes, summed", report.peak_wavefront_bytes),
        ("engine_swg_cells_total", "SWG-equivalent DP cells served", report.swg_cells),
    ):
        reg.counter(counter, help_text).inc(value, labels)
    reg.histogram(
        "engine_batch_seconds", "Wall-time per batch"
    ).observe(report.elapsed_seconds, labels)
    reg.gauge(
        "engine_workers", "Configured worker processes"
    ).set(report.workers, labels)
    seconds = reg.counter("engine_stage_seconds_total", "Wall-time per stage")
    calls = reg.counter("engine_stage_calls_total", "Invocations per stage")
    for stage, entry in report.profile.items():
        stage_labels = {"stage": stage, **labels}
        seconds.inc(entry["seconds"], stage_labels)
        calls.inc(entry["calls"], stage_labels)


def publish_accelerator_batch(
    batch: Any,
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    base_us: float | None = None,
    tid_base: int = 0,
    lane_prefix: str = "",
    base_cycle: int | None = None,
) -> None:
    """Publish one simulator :class:`~repro.wfasic.BatchResult`.

    Registry side: per-stage cycle totals (``wfasic_cycles_total`` with
    ``stage`` = ``read`` / ``compute`` / ``extend`` / ``other`` /
    ``output``) and per-alignment outcomes.  Tracer side: the batch
    schedule mapped onto the simulated-cycle timeline — per-pair
    Extractor read spans, per-Aligner alignment spans with their
    Compute/Extend split (aggregate cycle counts laid out sequentially
    inside the span — the simulator records totals, not a per-step
    timeline), and the Collector output drain.  ``base_us`` anchors
    cycle 0 on the wall clock; it defaults to "now".

    Fleet runs give each chip its own lanes on the one simulated-cycle
    timeline: ``tid_base`` offsets every track id (chip ``i`` uses
    ``1000 * (i + 1)``), ``lane_prefix`` labels the tracks ("chip 0 · "),
    and ``base_cycle`` anchors the batch at its *simulated* start cycle
    instead of the wall clock — so Perfetto shows the true cross-chip
    overlap (``base_us`` is then ignored).
    """
    reg = registry or get_registry()
    cycles = reg.counter(
        "wfasic_cycles_total", "Simulated accelerator cycles by stage"
    )
    read_total = sum(s.read_end - s.read_start for s in batch.schedule)
    compute_total = sum(r.stats.compute_cycles for r in batch.runs)
    extend_total = sum(r.stats.extend_cycles for r in batch.runs)
    align_total = sum(r.cycles for r in batch.runs)
    cycles.inc(read_total, {"stage": "read"})
    cycles.inc(compute_total, {"stage": "compute"})
    cycles.inc(extend_total, {"stage": "extend"})
    cycles.inc(
        max(align_total - compute_total - extend_total, 0), {"stage": "other"}
    )
    cycles.inc(batch.output_cycles, {"stage": "output"})
    reg.counter(
        "wfasic_makespan_cycles_total", "Batch makespans, summed"
    ).inc(batch.total_cycles)
    reg.counter("wfasic_batches_total", "Accelerator batches").inc(1)
    outcomes = reg.counter(
        "wfasic_alignments_total", "Alignments by hardware success flag"
    )
    for run in batch.runs:
        outcomes.inc(1, {"success": "true" if run.success else "false"})

    tr = tracer or get_tracer()
    if tr is None:
        return
    if base_cycle is not None:
        base = tr.cycles_to_us(base_cycle)
    else:
        base = tr.now_us() if base_us is None else base_us
    tr.name_thread(2, tid_base, f"{lane_prefix}extractor / input path")
    runs_by_id = {run.alignment_id: run for run in batch.runs}
    for sched in batch.schedule:
        tr.name_thread(
            2,
            tid_base + 1 + sched.aligner_index,
            f"{lane_prefix}aligner {sched.aligner_index}",
        )
        tr.cycle_span(
            f"read pair {sched.alignment_id}",
            "wfasic:extractor",
            base,
            sched.read_start,
            sched.read_end,
            tid=tid_base,
            args={"alignment_id": sched.alignment_id},
        )
        run = runs_by_id[sched.alignment_id]
        tid = tid_base + 1 + sched.aligner_index
        tr.cycle_span(
            f"align pair {sched.alignment_id}",
            "wfasic:aligner",
            base,
            sched.read_end,
            sched.align_end,
            tid=tid,
            args={
                "alignment_id": sched.alignment_id,
                "score": run.score,
                "success": run.success,
                "wavefront_steps": run.stats.wavefront_steps,
            },
        )
        # Aggregate sub-spans: the simulator counts Compute/Extend cycles
        # per alignment but not per step, so the split is laid out
        # sequentially inside the alignment span.
        at = sched.read_end
        for stage, stage_cycles in (
            ("compute", run.stats.compute_cycles),
            ("extend", run.stats.extend_cycles),
        ):
            if stage_cycles:
                tr.cycle_span(
                    stage,
                    f"wfasic:{stage}",
                    base,
                    at,
                    at + stage_cycles,
                    tid=tid,
                    args={"alignment_id": sched.alignment_id},
                )
                at += stage_cycles
    if batch.output_cycles:
        tr.name_thread(
            2, tid_base + COLLECTOR_TID, f"{lane_prefix}collector / output path"
        )
        tr.cycle_span(
            "drain results",
            "wfasic:collector",
            base,
            0,
            batch.output_cycles,
            tid=tid_base + COLLECTOR_TID,
            args={"transactions": batch.output.num_transactions},
        )


def publish_cpu_cycles(
    kind: str, cycles: int, registry: MetricsRegistry | None = None
) -> None:
    """Publish Sargantana CPU-model cycles (``soc_cpu_cycles_total``)."""
    reg = registry or get_registry()
    reg.counter(
        "soc_cpu_cycles_total", "Modelled Sargantana cycles by activity"
    ).inc(cycles, {"kind": kind})


def publish_asic_report(
    report: Any, registry: MetricsRegistry | None = None
) -> None:
    """Publish the physical model's headline figures as gauges."""
    reg = registry or get_registry()
    reg.gauge("wfasic_asic_area_mm2", "GF22FDX accelerator area").set(
        report.total_area_mm2
    )
    reg.gauge("wfasic_asic_memory_mb", "On-chip memory").set(report.memory_mb)
    reg.gauge("wfasic_asic_power_w", "Post-PnR power estimate").set(
        report.power_w
    )
    reg.gauge("wfasic_asic_frequency_hz", "Post-PnR frequency").set(
        report.frequency_hz
    )
    reg.gauge(
        "wfasic_asic_memory_macros", "Register-file macro count"
    ).set(report.inventory.total_macros)


def publish_fleet_result(
    result: Any, registry: MetricsRegistry | None = None
) -> None:
    """Publish one fleet run (:class:`~repro.fleet.FleetResult`).

    Fleet-aggregate counters plus per-chip busy cycles labelled by chip
    index; the per-chip trace lanes are emitted by the accelerator
    batches themselves (``publish_accelerator_batch`` with a per-chip
    ``tid_base``), not here.
    """
    reg = registry or get_registry()
    reg.gauge("fleet_chips", "Simulated chips in the fleet").set(
        len(result.chips)
    )
    reg.counter(
        "fleet_pairs_total", "Pairs routed through the fleet"
    ).inc(result.num_pairs - result.unroutable)
    reg.counter(
        "fleet_unroutable_total", "Pairs no chip could accept"
    ).inc(result.unroutable)
    reg.counter(
        "fleet_batches_total", "Micro-batches dispatched to chips"
    ).inc(result.batches)
    reg.counter(
        "fleet_makespan_cycles_total", "Fleet makespans, summed"
    ).inc(result.makespan_cycles)
    busy = reg.counter(
        "fleet_busy_cycles_total", "Simulated busy cycles per chip"
    )
    for chip in result.chips:
        busy.inc(chip.busy_cycles, {"chip": str(chip.index)})
