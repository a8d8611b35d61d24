"""Long-read banding: memory frugality at equal scores.

The PR 7 acceptance measurement: on ONT-like long-read pairs
(``PairGenerator.long_read``), the banded :class:`BatchedWfaAligner`
must reproduce the exact scores while cutting the per-pair peak
wavefront footprint (``WfaWorkCounters.peak_wavefront_bytes``) by at
least **5x**.  The fast workload runs 10 kbp reads at 2 % divergence;
the ``slow``-marked one pushes to 50 kbp at 1 % (the long-read smoke
job in CI runs only the fast one).

Results land machine-readably in ``benchmarks/results/BENCH_pr7.json``
via the ``bench_json_pr7`` fixture.
"""

from __future__ import annotations

import time

import pytest

from repro.align import BatchedWfaAligner
from repro.reporting import format_table
from repro.workloads import PairGenerator

#: The adaptive band follows the furthest-reaching diagonal, so ~21x
#: the max indel run is ample head-room for a 1-2 % ONT error profile.
BAND_WIDTH = 128

#: The acceptance bar: exact-peak / banded-peak, per pair.
MIN_MEMORY_REDUCTION = 5.0

WORKLOADS = (
    pytest.param(
        {"read_length": 10_000, "error_rate": 0.02, "num_pairs": 4, "seed": 71},
        id="10kbp",
    ),
    pytest.param(
        {"read_length": 50_000, "error_rate": 0.01, "num_pairs": 2, "seed": 72},
        id="50kbp",
        marks=pytest.mark.slow,
    ),
)


def _workload(spec):
    gen = PairGenerator.long_read(
        length=spec["read_length"],
        error_rate=spec["error_rate"],
        seed=spec["seed"],
    )
    return [(p.pattern, p.text) for p in gen.batch(spec["num_pairs"])]


def _timed_batch(aligner, pairs):
    start = time.perf_counter()
    results = aligner.align_batch(pairs)
    return results, time.perf_counter() - start


@pytest.mark.parametrize("spec", WORKLOADS)
def test_banded_memory_reduction_at_equal_scores(
    spec, report_table, bench_json_pr7
):
    pairs = _workload(spec)
    exact, exact_s = _timed_batch(BatchedWfaAligner(), pairs)
    banded, banded_s = _timed_batch(
        BatchedWfaAligner(band_width=BAND_WIDTH), pairs
    )

    # Equal scores: the adaptive band held the optimal path on every
    # pair of this workload (and no pair needed the exact fallback).
    assert all(b.reached_end for b in banded)
    assert [b.score for b in banded] == [e.score for e in exact]

    reductions = [
        e.work.peak_wavefront_bytes / b.work.peak_wavefront_bytes
        for b, e in zip(banded, exact)
    ]
    worst = min(reductions)
    assert worst >= MIN_MEMORY_REDUCTION, (
        f"{spec['read_length']}bp: worst per-pair peak-memory reduction "
        f"is {worst:.1f}x (bar: {MIN_MEMORY_REDUCTION:.0f}x)"
    )

    label = f"{spec['read_length'] // 1000}kbp"
    exact_peak = max(e.work.peak_wavefront_bytes for e in exact)
    banded_peak = max(b.work.peak_wavefront_bytes for b in banded)
    report_table(format_table(
        ["workload", "score parity", "peak exact", "peak banded",
         "reduction", "banded pairs/s"],
        [[
            label,
            f"{len(pairs)}/{len(pairs)}",
            f"{exact_peak / 1e6:.1f} MB",
            f"{banded_peak / 1e6:.2f} MB",
            f"{worst:.1f}x",
            f"{len(pairs) / banded_s:.2f}",
        ]],
        title=f"Long-read banding (band={BAND_WIDTH}, backtrace off)",
    ))
    bench_json_pr7(f"longread_banding_{label}", {
        "workload": dict(spec),
        "band_width": BAND_WIDTH,
        "bar": MIN_MEMORY_REDUCTION,
        "scores_equal": True,
        "peak_wavefront_bytes": {
            "exact": [e.work.peak_wavefront_bytes for e in exact],
            "banded": [b.work.peak_wavefront_bytes for b in banded],
            "worst_reduction": round(worst, 2),
        },
        "elapsed_seconds": {
            "exact": round(exact_s, 3),
            "banded": round(banded_s, 3),
        },
        "pairs_per_second": {
            "exact": round(len(pairs) / exact_s, 3),
            "banded": round(len(pairs) / banded_s, 3),
        },
    })
