"""Backtrace memory of the batched aligner on long reads.

The aligner keeps one origin byte per computed cell for backtrace, where
offset history costs 8 bytes per stored M/I/D cell — the design
``peak_wavefront_bytes`` models.  On banded 10 kbp reads everything the
run allocates must stay well under that model.
"""

import tracemalloc

from repro.align import BatchedWfaAligner
from repro.workloads import PairGenerator


def test_long_read_backtrace_peak_is_a_fraction_of_offset_history():
    pairs = [(p.pattern, p.text) for p in PairGenerator.long_read(seed=3).batch(4)]
    tracemalloc.start()
    try:
        results = BatchedWfaAligner(band_width=128).align_batch(pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.reached_end and r.cigar is not None for r in results)
    modelled = sum(r.work.peak_wavefront_bytes for r in results)
    assert peak <= modelled / 4, (peak, modelled)
