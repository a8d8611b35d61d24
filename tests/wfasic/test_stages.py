"""The Compute/Extend cycle charges of :func:`repro.wfasic.price`.

Hand-built traces pin each charge; real traces are checked against a
per-cell reference of the same charges at every section count a trace
group divides, and against :meth:`Aligner.run`.
"""

import random

import numpy as np
import pytest

import repro.wfasic.aligner as aligner_module
from repro.align import AffinePenalties
from repro.wfasic import Aligner, AlignerStats, AlignerTimings, AlignerTrace, WfasicConfig, price

from tests.util import random_pair
from tests.wfasic.test_aligner import job_for

DEFAULT = AlignerTimings()
CUSTOM = AlignerTimings(
    cycles_per_group=5,
    step_overhead=1,
    pipeline_fill=3,
    cycles_per_block=2,
    setup_cycles=7,
    drain_cycles=9,
)


def trace_of(widths, maxima, group=16, payload=None, sections=None):
    """A hand-built successful trace of the given steps."""
    return AlignerTrace(
        success=True,
        score=0,
        k_reached=0,
        group=group,
        widths=np.array(widths, dtype=np.int64),
        block_maxima=np.array(maxima, dtype=np.uint16),
        extend_blocks=0,
        extend_matches=0,
        bt_payload=payload,
        bt_sections=sections,
    )


def extend_cycles(blocks, sections, timings=DEFAULT):
    """Extend cycles of one step whose cells cost ``blocks``, traced in
    groups of ``gcd(sections, 16)``."""
    group = np.gcd(sections, 16)
    blocks = np.asarray(blocks, dtype=np.int64)
    maxima = np.maximum.reduceat(blocks, np.arange(0, len(blocks), group))
    return price(trace_of([len(blocks)], maxima, group), sections, timings)[1].extend_cycles


class TestGroupLatencies:
    """Extend (§4.3.2): fill plus each group's longest block run."""

    def test_empty(self):
        # A skipped pair has no steps: setup only, no drain.
        cycles, stats = price(trace_of([], []), 64, DEFAULT)
        assert cycles == DEFAULT.setup_cycles
        assert stats == AlignerStats()

    def test_single_group_max(self):
        # 5-cycle fill + the longest run in the group.
        assert extend_cycles([1, 3, 2, 0], 64) == 5 + 3

    def test_zero_block_group_still_pays_fill(self):
        assert extend_cycles([0, 0, 0, 0], 64) == 5 + 1

    def test_multiple_groups(self):
        assert extend_cycles([1] * 64 + [4] * 10, 64) == 6 + 9

    def test_group_size_respected(self):
        assert extend_cycles([2, 2, 5, 1], 2) == 7 + 10

    def test_custom_timings(self):
        t = AlignerTimings(pipeline_fill=3, cycles_per_block=2)
        assert extend_cycles([4], 64, t) == 3 + 8


class TestExtendStage:
    def test_cycles_accumulate(self):
        a = "ACGT" * 20
        cfg = WfasicConfig(backtrace=False)
        trace = Aligner(cfg).trace(job_for(a, a))
        cycles, stats = price(trace, 64, DEFAULT)
        assert trace.extend_matches == stats.extend_matches == 80
        assert stats.extend_blocks == 5  # ceil(80/16) blocks
        assert stats.extend_cycles == 5 + 5
        assert cycles == 10 + 2 + (5 + 5) + 4


class TestComputeStage:
    """Compute (§4.3.3): an access schedule per group plus a step overhead."""

    def test_group_count_cycles(self):
        # Score 0's single cell, then 130 cells: 3 groups of 64.
        _, stats = price(trace_of([1, 130], [0] + [0] * 9), 64, DEFAULT)
        assert stats.compute_cycles == 3 * 3 + 2
        assert stats.cells_processed == 3 * 130
        assert stats.peak_band_width == 130

    def test_origins_emitted_when_requested(self):
        rng = random.Random(71)
        job = job_for(*random_pair(rng, 60, 0.2))
        on = Aligner(WfasicConfig(parallel_sections=32, backtrace=True)).trace(job)
        off = Aligner(WfasicConfig(parallel_sections=32, backtrace=False)).trace(job)
        blocks = int((-(-on.widths[1:] // 32)).sum())
        assert on.bt_sections == 32 and len(on.bt_payload) == 20 * blocks
        assert off.bt_payload is None and off.bt_sections is None

    def test_custom_timings(self):
        t = AlignerTimings(cycles_per_group=5, step_overhead=0)
        _, stats = price(trace_of([1, 33], [0] * 4), 32, t)
        assert stats.compute_cycles == 2 * 5


def reference(steps, sections, timings):
    """Cycles and (compute, extend) cycles from each step's per-cell
    block counts, one ``sections``-cell group at a time."""
    t = timings
    if not steps:
        return t.setup_cycles, 0, 0
    compute = extend = 0
    for i, blocks in enumerate(steps):
        starts = np.arange(0, len(blocks), sections)
        longest = np.maximum(np.maximum.reduceat(blocks, starts), 1)
        extend += int((t.pipeline_fill + t.cycles_per_block * longest).sum())
        if i:
            compute += len(starts) * t.cycles_per_group + t.step_overhead
    total = t.setup_cycles + t.step_overhead + compute + extend + t.drain_cycles
    return total, compute, extend


def _cases():
    rng = random.Random(2026)
    p100 = random_pair(rng, 100, 0.1)
    p1k = random_pair(rng, 1000, 0.1)
    clamped = AffinePenalties(3, 2, 1)
    return {
        "100bp": (p100, 3998, None),
        "100bp-k_max-clamp": (p100, 16, clamped),
        "100bp-eq6-failure": (p100, 16, None),
        "1kbp": (p1k, 3998, None),
        "1kbp-clamped-eq6-failure": (p1k, 64, clamped),
        "k_final-beyond-k_max": (p100, 4, None),
        "unsupported": (("ACGN" * 25, p100[1]), 3998, None),
    }


CASES = _cases()


@pytest.fixture(params=sorted(CASES))
def case(request, monkeypatch):
    """A job, its config factory and its per-step per-cell block counts."""
    (a, b), k_max, penalties = CASES[request.param]
    job = job_for(a, b)
    extra = {} if penalties is None else {"penalties": penalties}

    def config(sections, backtrace=False):
        return WfasicConfig(
            parallel_sections=sections, k_max=k_max, backtrace=backtrace, **extra
        )

    steps = []
    kernel = aligner_module.extend_kernel

    def spy(*args, **kwargs):
        out = kernel(*args, **kwargs)
        steps.append(out.blocks)
        return out

    monkeypatch.setattr(aligner_module, "extend_kernel", spy)
    # Backtrace on: a fresh trace, never a memo hit.
    Aligner(config(16, backtrace=True)).trace(job)
    monkeypatch.undo()
    return request.param, job, config, steps


class TestPriceEqualsRun:
    def test_cases_cover_every_exit(self):
        outcomes = {}
        for name, ((a, b), k_max, penalties) in CASES.items():
            extra = {} if penalties is None else {"penalties": penalties}
            cfg = WfasicConfig(k_max=k_max, backtrace=True, **extra)
            run = Aligner(cfg).run(job_for(a, b))
            outcomes[name] = (run.success, run.k_reached, run.stats.peak_band_width)
        assert outcomes["100bp-k_max-clamp"] == (True, 5, 33)  # 2 k_max + 1
        assert outcomes["100bp-eq6-failure"] == (False, 5, 31)
        assert outcomes["1kbp-clamped-eq6-failure"] == (False, 7, 129)
        assert outcomes["k_final-beyond-k_max"] == (False, 0, 0)
        assert outcomes["unsupported"] == (False, 0, 0)
        assert outcomes["1kbp"][0] and outcomes["100bp"][0]

    @pytest.mark.parametrize("timings", [DEFAULT, CUSTOM], ids=["default", "custom"])
    def test_one_trace_prices_every_section_count(self, case, timings):
        name, job, config, steps = case
        trace = Aligner(config(16)).trace(job)
        assert trace.group == 16
        for sections in (16, 32, 64, 128):
            cycles, stats = price(trace, sections, timings)
            run = Aligner(config(sections, backtrace=True), timings).run(job)
            assert (cycles, stats) == (run.cycles, run.stats), (name, sections)
            total, compute, extend = reference(steps, sections, timings)
            assert (cycles, stats.compute_cycles, stats.extend_cycles) == (
                total,
                compute,
                extend,
            ), (name, sections)

    @pytest.mark.parametrize("sections", [1, 4, 8])
    def test_small_section_counts(self, case, sections):
        name, job, config, steps = case
        trace = Aligner(config(sections)).trace(job)
        assert trace.group == sections
        if steps:
            assert len(trace.block_maxima) == sum(-(-len(s) // sections) for s in steps)
        for timings in (DEFAULT, CUSTOM):
            for priced_at in (sections, 16):
                cycles, stats = price(trace, priced_at, timings)
                assert (cycles, stats.compute_cycles, stats.extend_cycles) == reference(
                    steps, priced_at, timings
                ), (name, priced_at)
            run = Aligner(config(sections), timings).run(job)
            assert run.cycles == price(trace, sections, timings)[0]


class TestPriceRejects:
    def test_section_count_not_a_multiple_of_the_group(self):
        with pytest.raises(ValueError, match="16-cell groups"):
            price(trace_of([1], [0]), 24, DEFAULT)
        with pytest.raises(ValueError, match="8-cell groups"):
            price(trace_of([1], [0], group=8), 4, DEFAULT)

    def test_backtrace_trace_at_another_section_count(self):
        job = job_for("ACGT" * 10, "ACGA" * 10)
        trace = Aligner(WfasicConfig(parallel_sections=32, backtrace=True)).trace(job)
        assert price(trace, 32, DEFAULT)[0] > 0
        for sections in (16, 64):
            with pytest.raises(ValueError, match="packed for 32 sections"):
                price(trace, sections, DEFAULT)
