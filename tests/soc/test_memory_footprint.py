"""Memory regression tests for the accelerated flow's backtrace stream.

The BT stream of a batch should cost memory once per hop (one payload
buffer per Aligner run, the Collector buffer, SoC memory), not once per
intermediate ``bytes`` object; the CPU parses the result region in
place; and the 64 MB SoC memory should only be resident where a batch
touches it.
"""

import tracemalloc
from pathlib import Path

import pytest

from repro.soc import MainMemory, Soc
from repro.wfasic import WfasicConfig
from repro.workloads import make_input_set

STATUS = Path("/proc/self/status")

#: Traced peak of one ``run_accelerated(backtrace=True)`` call over the
#: length of the BT stream it produced, on four 1K-10% pairs: 6.2 with
#: a collector that joined per-run ``bytes`` and a parse that widened
#: every header field to int64, 3.9 with one framing buffer and a parse
#: over stream slices, 2.6 with one payload buffer per Aligner run and
#: a parse of the result region in place.
MAX_PEAK_PER_STREAM_BYTE = 3.0


def vm_rss_kb() -> int:
    for line in STATUS.read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    pytest.skip("no VmRSS in /proc/self/status")


@pytest.mark.skipif(not STATUS.exists(), reason="needs /proc/self/status")
def test_main_memory_pages_are_resident_only_when_touched():
    before = vm_rss_kb()
    mem = MainMemory()
    grown_mb = (vm_rss_kb() - before) / 1024
    assert mem.size == 64 * 1024 * 1024
    assert grown_mb < 8


def test_read_is_independent_of_later_writes():
    mem = MainMemory(64)
    mem.write(0, b"abcd")
    first = mem.read(0, 4)
    mem.write(0, b"wxyz")
    assert first == b"abcd"
    assert mem.read(0, 4) == b"wxyz"


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc already in use")
def test_backtrace_flow_peak_is_bounded_by_stream_length():
    pairs = make_input_set("1K-10%", 4)
    soc = Soc(WfasicConfig.paper_default(backtrace=True))
    tracemalloc.start()
    try:
        out = soc.run_accelerated(pairs, backtrace=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(out.success.values())
    ratio = peak / out.batch.output.total_bytes
    assert ratio < MAX_PEAK_PER_STREAM_BYTE, f"peak is {ratio:.2f}x the stream"


def test_no_memory_export_outlives_run_accelerated():
    soc = Soc(WfasicConfig.paper_default(backtrace=True))
    first = soc.run_accelerated(make_input_set("100-10%", 4), backtrace=True)
    scores = dict(first.scores)
    cigars = {aid: str(cigar) for aid, cigar in first.cigars.items()}
    # The second batch's results overwrite the first one's region.
    second = soc.run_accelerated(
        make_input_set("100-5%", 4, seed_offset=1), backtrace=True
    )
    assert all(second.success.values())
    assert first.scores == scores
    assert {aid: str(cigar) for aid, cigar in first.cigars.items()} == cigars
    soc.memory._data.close()  # BufferError if a view were still exported
