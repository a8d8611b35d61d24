"""``reads_batch`` and ``longread_banded``: the offline ``batch`` command.

Each job is one ``repro-wfasic batch`` invocation, run in-process through
:func:`repro.cli.main` on a FASTQ written at set-up: the CLI parses the
file, builds a fresh engine from its flags, aligns, writes the JSON
results and tears the engine down, exactly as a user's shell call does.
A fresh engine per job keeps the LRU cache empty, so these workloads
measure the kernel and transport, never the cache.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any

from common import (
    WORKER_KERNEL_STAGE,
    ChildPeaks,
    Spans,
    cigar_error,
    install_kernel_spans,
    probe_setup,
    nearest_rank,
    reference_scores,
    vm_hwm_mb,
    write_fastq,
)


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    #: CLI flags after the input path (the documented command lines).
    flags: tuple[str, ...]
    pairs_per_job: int
    #: Band width the reference applies (the command's ``--band``).
    band_width: int | None
    #: Interpreters the set-up reference is split over (10 kbp pairs
    #: take ~0.35 s each in the scalar reference).
    reference_processes: int = 1

    def make_pairs(self, seed: int) -> list[tuple[str, str]]:
        from repro.workloads import PairGenerator

        if self.name == "reads_batch":
            gen = PairGenerator(
                length=150, error_rate=0.05, seed=seed, max_text_length=150
            )
        else:
            gen = PairGenerator.long_read(length=10_000, seed=seed)
        return [(p.pattern, p.text) for p in gen.batch(self.pairs_per_job)]


WORKLOADS = {
    # The CLI's engine defaults (vectorized, one in-process worker,
    # chunks of 16, 4096-entry cache) plus --backtrace.
    # 512 pairs per job: per-pair work varies with the errors drawn, and
    # at 64 pairs the seed alone moved pairs/s by ~10 %.
    "reads_batch": BatchWorkload(
        "reads_batch", ("--backtrace",), pairs_per_job=512, band_width=None
    ),
    # The long-read command of docs/long-reads.md with two workers:
    # 32 pairs make two 16-pair chunks, one per worker, dispatched over
    # the shared-memory transport (on by default).
    "longread_banded": BatchWorkload(
        "longread_banded",
        ("--backend", "batched", "--band", "128", "-j", "2", "--backtrace"),
        pairs_per_job=32,
        band_width=128,
        reference_processes=2,
    ),
}


def cli_argv(workload: BatchWorkload, fastq: Path, out: Path) -> list[str]:
    return ["batch", str(fastq), *workload.flags, "--format", "json", "-o", str(out)]


def run_job(argv: list[str]) -> float:
    """One ``batch`` invocation; its wall seconds (stdout swallowed)."""
    from repro.cli import main

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = main(argv)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"repro-wfasic {' '.join(argv)} exited {rc}")
    return elapsed


@dataclass
class Window:
    """The jobs of one measured window."""

    seconds: list[float]
    summaries: list[dict]
    results: list[list[dict]]
    shm_arena_bytes: float = 0.0


def run_window(argv: list[str], out: Path, budget: float) -> Window:
    """Run jobs until ``budget`` seconds of job time are (about) spent.

    A job starts only while half a typical job still fits, so the
    measured time stays near ``budget`` whatever the job length.
    """
    from repro.obs import get_registry

    window = Window([], [], [])
    spent = 0.0
    while not window.seconds or spent + median(window.seconds) / 2 <= budget:
        elapsed = run_job(argv)
        spent += elapsed
        window.seconds.append(elapsed)
        doc = json.loads(out.read_text(encoding="ascii"))
        window.summaries.append(doc["summary"])
        window.results.append(doc["results"])
        gauge = get_registry().snapshot().get("engine_shm_arena_bytes")
        if gauge:
            window.shm_arena_bytes = max(
                window.shm_arena_bytes,
                max(s["value"] for s in gauge["series"]),
            )
    return window


def check(
    pairs: list[tuple[str, str]],
    windows: list[Window],
    reference: list[int],
) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job of every window."""
    problems: list[str] = []
    first = windows[0].results[0]
    for slot, ((pattern, text), row, ref) in enumerate(
        zip(pairs, first, reference)
    ):
        if not row["ok"] or row["score"] != ref:
            problems.append(
                f"pair {slot}: score {row['score']} ok={row['ok']}, "
                f"reference {ref}"
            )
            continue
        why = cigar_error(pattern, text, row["score"], row["cigar"])
        if why:
            problems.append(f"pair {slot}: {why}")
    failed_slots = len(problems)
    attempted = failed = 0
    for window in windows:
        for rows in window.results:
            attempted += len(rows)
            if len(rows) != len(pairs):
                problems.append(f"job answered {len(rows)} of {len(pairs)} pairs")
                failed += len(pairs)
                continue
            diff = sum(1 for a, b in zip(rows, first) if a != b)
            if diff:
                problems.append(f"{diff} results differ from the first job")
            failed += max(diff, failed_slots)
    return attempted, failed, problems


def layer_metrics(spans: Spans, window: Window) -> dict[str, Any]:
    """Per-layer split of the traced window (see ``metric_map.json``)."""
    total = sum(window.seconds)
    stages: dict[str, float] = {}
    busy = elapsed_workers = 0.0
    pairs = hits = coalesced = fallbacks = wavefront = 0
    for summary in window.summaries:
        for stage, entry in summary["profile"].items():
            stages[stage] = stages.get(stage, 0.0) + entry["seconds"]
        busy += sum(summary["workers_busy_seconds"].values())
        elapsed_workers += summary["elapsed_seconds"] * summary["workers"]
        pairs += summary["num_pairs"]
        hits += summary["cache_hits"]
        coalesced += summary["coalesced"]
        fallbacks += summary["band_fallbacks"]
        wavefront += summary["peak_wavefront_bytes"]
    align_batch = spans.total["engine.align_batch"]
    engine_stages = sum(
        stages.get(s, 0.0) for s in ("resolve", "dispatch", "execute", "gather")
    )
    return {
        "total_s": total,
        "latency_p50_ms": median(window.seconds) * 1e3,
        "latency_p99_ms": nearest_rank(window.seconds, 0.99) * 1e3,
        "workloads.parse_s": spans.total["workloads.parse"],
        "engine.align_batch_s": align_batch,
        **{
            f"engine.{s}_s": stages.get(s, 0.0)
            for s in ("resolve", "dispatch", "execute", "ipc", "gather")
        },
        "engine.unaccounted_s": align_batch - engine_stages,
        "engine.cache_hit_frac": hits / pairs,
        "engine.coalesced_frac": coalesced / pairs,
        "engine.worker_busy_frac": busy / max(elapsed_workers, 1e-9),
        "align.kernel_s": spans.total["align.kernel"]
        + stages.get(WORKER_KERNEL_STAGE, 0.0),
        **{
            f"align.{s}_s": stages.get(s, 0.0)
            for s in ("compute", "extend", "backtrace")
        },
        "align.band_fallbacks": fallbacks,
        "align.peak_wavefront_mb": wavefront / pairs / 1e6,
        "align.shm_arena_mb": window.shm_arena_bytes / 1e6,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """Measure one batch workload; the pieces run.py turns into the result."""
    from repro.engine import BatchAlignmentEngine

    workload = WORKLOADS[name]
    pairs = workload.make_pairs(seed)
    fastq = tmp / "pairs.fastq"
    out = tmp / "out.json"
    write_fastq(fastq, pairs)
    # Two pairs: the warm-up job here and each fresh-process set-up probe.
    write_fastq(tmp / "setup.fastq", pairs[:2])
    argv = cli_argv(workload, fastq, out)

    metrics: dict[str, Any] = {}
    if not trace:
        metrics["setup_s"] = median(probe_setup(name, tmp))
    run_job(cli_argv(workload, tmp / "setup.fastq", out))
    windows = []
    if not trace:
        peaks = ChildPeaks()
        hook = Spans()
        hook.wrap(BatchAlignmentEngine, "align_batch", "engine.align_batch", peaks.sample)
        try:
            window = run_window(argv, out, seconds)
        finally:
            hook.restore()
        windows.append(window)
        # Median job: one job slowed by the host does not move the rate.
        metrics["pairs_per_s"] = workload.pairs_per_job / median(window.seconds)
        metrics["peak_rss_mb"] = vm_hwm_mb() + peaks.mb
    else:
        plain = run_window(argv, out, seconds / 2)
        spans = Spans()
        install_kernel_spans(spans)
        import repro.cli

        spans.wrap(repro.cli, "read_pairs_file", "workloads.parse")
        spans.wrap(BatchAlignmentEngine, "align_batch", "engine.align_batch")
        spans.wrap(BatchAlignmentEngine, "__init__", "engine.init")
        spans.wrap(BatchAlignmentEngine, "close", "engine.close")
        try:
            traced = run_window(argv, out, seconds / 2)
        finally:
            spans.restore()
        windows += [plain, traced]
        metrics.update(layer_metrics(spans, traced))
        metrics["layer_self"] = {
            layer: spans.layer_self(layer)
            for layer in ("workloads", "engine", "align")
        }
        metrics["trace_overhead_frac"] = (
            median(traced.seconds) / median(plain.seconds) - 1.0
        )

    reference = reference_scores(pairs, workload.band_width, workload.reference_processes)
    attempted, failed, problems = check(pairs, windows, reference)
    metrics["slo_frac"] = (attempted - failed) / attempted
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "pairs": pairs,
        "detail": {
            "job_seconds": [w.seconds for w in windows],
            "pairs_per_job": workload.pairs_per_job,
            "argv": ["repro-wfasic", "batch", fastq.name, *workload.flags],
        },
    }
