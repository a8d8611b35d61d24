#!/usr/bin/env python3
"""Throughput analysis: utilisation, bottlenecks, and batch pipelining.

Four analyses — three on the accelerator model, one on the software
serving layer:

1. **Utilisation** — where the cycles go as the Aligner count scales on a
   short-read batch (the Fig. 10 saturation, seen from the inside:
   reader busy, Aligners idle).
2. **Output-port contention** — the fluid-pipeline view of the backtrace
   stream throttling wide configurations (§4.1's bandwidth warning).
3. **Batch pipelining** — overlapping the CPU backtrace of one batch with
   the accelerator's next batch ("runs as an independent process in
   parallel to other CPU processes", §1).
4. **Batch engine** — the software serving path: the same workload
   through the parallel batch engine, serial vs sharded vs cached.

Run:  python examples/throughput_analysis.py
"""

import statistics

from repro.engine import align_pairs
from repro.metrics import analyse_batch
from repro.reporting import format_table
from repro.reporting.schedule import render_schedule
from repro.soc import Soc, run_overlapped
from repro.wfasic import WfasicAccelerator, WfasicConfig
from repro.wfasic.packets import encode_input_image, round_up_read_len
from repro.wfasic.pipeline import FluidPipelineSim, PipelineJob
from repro.workloads import make_input_set


def utilisation_sweep() -> None:
    pairs = make_input_set("100-10%", 24)
    mrl = round_up_read_len(max(p.max_length for p in pairs))
    image = encode_input_image(pairs, mrl)
    rows = []
    for aligners in (1, 2, 4, 6, 8):
        cfg = WfasicConfig(num_aligners=aligners, backtrace=False)
        result = WfasicAccelerator(cfg).run_image(image, mrl)
        a = analyse_batch(result)
        rows.append(
            [
                aligners,
                a.makespan,
                f"{a.aligner_utilisation:.0%}",
                f"{a.reader_utilisation:.0%}",
                "yes" if a.input_bound else "no",
            ]
        )
    print(format_table(
        ["Aligners", "makespan", "aligner util", "reader util", "input-bound"],
        rows,
        title="=== 1. utilisation vs Aligner count (100bp-10%, BT off) ===",
    ))
    print("  -> beyond Eq. 7's knee the reader saturates and Aligners idle\n")

    # Visualise the saturated case: reads (r) back to back, aligners idle.
    cfg = WfasicConfig(num_aligners=4, backtrace=False)
    small = make_input_set("100-10%", 8)
    image = encode_input_image(small, mrl)
    result = WfasicAccelerator(cfg).run_image(image, mrl)
    print(render_schedule(result))
    print()


def contention_view() -> None:
    pairs = make_input_set("1K-10%", 4)
    mrl = round_up_read_len(max(p.max_length for p in pairs))
    image = encode_input_image(pairs, mrl)
    cfg = WfasicConfig.paper_default(backtrace=True)
    result = WfasicAccelerator(cfg).run_image(image, mrl)
    align = int(statistics.mean(result.alignment_cycles))
    txns = result.output.num_transactions // len(pairs)
    rows = []
    for aligners in (1, 2, 4):
        sim = FluidPipelineSim(aligners)
        jobs = [
            PipelineJob(result.reading_cycles_per_pair, align, txns)
            for _ in range(8)
        ]
        res = sim.run(jobs)
        rows.append(
            [aligners, int(res.makespan), "yes" if res.output_limited else "no"]
        )
    print(format_table(
        ["Aligners", "fluid makespan", "output-limited"],
        rows,
        title="=== 2. backtrace output contention (1K-10%, fluid model) ===",
    ))
    print("  -> the 16-byte output port throttles scaling once the BT\n"
          "     stream saturates it (§4.1)\n")


def pipelining_view() -> None:
    soc = Soc(WfasicConfig.paper_default(backtrace=True))
    all_pairs = make_input_set("1K-5%", 8)
    batches = [all_pairs[i * 2 : (i + 1) * 2] for i in range(4)]
    out = run_overlapped(soc, batches)
    print("=== 3. batch pipelining (4 batches of 2x 1kbp pairs, BT on) ===")
    print(f"  sequential: {out.sequential_cycles} cycles")
    print(f"  overlapped: {out.overlapped_cycles} cycles")
    print(f"  pipelining gain: {out.speedup:.2f}x "
          "(CPU backtrace hidden behind the next batch's alignment)")


def engine_view() -> None:
    # A serving-style workload: 48 requests over 16 distinct pairs (the
    # duplication a production frontend sees from repeated queries).
    unique = make_input_set("100-10%", 16)
    requests = [unique[i % len(unique)] for i in range(48)]
    rows = []
    for label, workers, cache in (
        ("serial, no cache", 1, 0),
        ("2 workers, no cache", 2, 0),
        ("2 workers + LRU cache", 2, 4096),
    ):
        res = align_pairs(
            requests,
            backend="batched",
            workers=workers,
            chunk_size=8,
            cache_size=cache,
        )
        rows.append(
            [
                label,
                f"{res.report.pairs_per_second:.0f}",
                f"{res.report.gcups:.4f}",
                f"{res.report.cache_hit_rate + res.report.coalesced / res.report.num_pairs:.0%}",
                f"{res.report.worker_utilisation:.0%}",
            ]
        )
    print(format_table(
        ["engine", "pairs/s", "GCUPS", "dup served", "worker util"],
        rows,
        title="=== 4. software batch engine (48 requests, 16 unique pairs) ===",
    ))
    print("  -> duplicate requests are answered from the LRU/coalescer,\n"
          "     so the cached engine's pairs/s is bounded by unique work only")


def main() -> None:
    utilisation_sweep()
    contention_view()
    pipelining_view()
    print()
    engine_view()


if __name__ == "__main__":
    main()
