"""The process-wide memo of payload-free Aligner traces."""

import json
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.align import AffinePenalties
from repro.fleet import SweepGrid, run_sweep
from repro.wfasic import Aligner, WfasicConfig, price
from repro.wfasic.aligner import TRACE_MEMO, AlignerTimings

from tests.util import random_pair
from tests.wfasic.test_aligner import job_for

SWEEP_ARTIFACT = Path(__file__).resolve().parents[2] / "docs" / "data" / "fleet_sweep.json"


@pytest.fixture
def memo():
    TRACE_MEMO.clear()
    yield TRACE_MEMO
    TRACE_MEMO.clear()


@pytest.fixture
def traces(monkeypatch):
    """Counts the traces computed (memo misses and bypasses)."""
    made = []
    inner = Aligner._trace

    def counting(self, job, group):
        made.append((job.seq_a, job.seq_b, self.config.k_max, group))
        return inner(self, job, group)

    monkeypatch.setattr(Aligner, "_trace", counting)
    return made


def assert_same_trace(one, other):
    for field in ("success", "score", "k_reached", "group", "extend_blocks",
                  "extend_matches", "bt_payload", "bt_sections"):
        assert getattr(one, field) == getattr(other, field), field
    assert np.array_equal(one.widths, other.widths)
    assert np.array_equal(one.block_maxima, other.block_maxima)
    assert one.block_maxima.dtype == other.block_maxima.dtype


def test_default_sweep_traces_each_pair_once_per_k_max(memo, traces):
    runs = []
    inner = Aligner.run

    def counting(self, job):
        runs.append(job.alignment_id)
        return inner(self, job)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Aligner, "run", counting)
        doc = run_sweep(SweepGrid())
    assert len(runs) == 768
    assert len(traces) == len(set(traces)) == 64
    assert doc == json.loads(SWEEP_ARTIFACT.read_text())


def test_hit_equals_a_fresh_trace(memo, traces):
    rng = random.Random(81)
    job = job_for(*random_pair(rng, 300, 0.1))
    aligner = Aligner(WfasicConfig(backtrace=False))
    first = aligner.trace(job)
    hit = aligner.trace(job)
    assert hit is first and len(traces) == 1 and len(memo) == 1
    memo.clear()
    fresh = aligner.trace(job)
    assert fresh is not first and len(traces) == 2
    assert_same_trace(hit, fresh)
    assert not hit.widths.flags.writeable and not hit.block_maxima.flags.writeable
    # Every section count sharing the 16-cell group prices the one entry.
    for sections in (16, 32, 128):
        run = Aligner(WfasicConfig(parallel_sections=sections, backtrace=False)).run(job)
        assert run.cycles == price(fresh, sections, AlignerTimings())[0]
    assert len(traces) == 2 and len(memo) == 1


def test_k_max_and_penalties_never_collide(memo, traces):
    job = job_for("ACGTTGCA" * 12, "ACGATGCA" * 12)
    configs = [
        WfasicConfig(backtrace=False),
        WfasicConfig(k_max=8, backtrace=False),
        WfasicConfig(backtrace=False, penalties=AffinePenalties(3, 2, 1)),
        WfasicConfig(parallel_sections=8, backtrace=False),
    ]
    runs = [Aligner(cfg).run(job) for cfg in configs]
    assert len(traces) == len(memo) == 4
    assert runs[0].success and not runs[1].success
    assert runs[0].score != runs[2].score
    for cfg, run in zip(configs, runs):
        again = Aligner(cfg).run(job)
        assert (again.success, again.score, again.cycles) == (
            run.success,
            run.score,
            run.cycles,
        )
    assert len(traces) == 4


def test_backtrace_runs_bypass_the_memo(memo, traces):
    job = job_for("ACGT" * 30, "ACGA" * 30)
    aligner = Aligner(WfasicConfig(backtrace=True))
    first, second = aligner.run(job), aligner.run(job)
    assert len(memo) == 0 and len(traces) == 2
    assert first.bt_payload is not second.bt_payload
    assert first.bt_payload == second.bt_payload


def test_unsupported_jobs_bypass_the_memo(memo, traces):
    job = job_for("ACGN" * 4, "ACGT" * 4)
    assert not job.supported
    Aligner(WfasicConfig(backtrace=False)).run(job)
    assert len(memo) == 0 and len(traces) == 1


def test_eviction_keeps_the_memo_under_its_bound(memo, traces, monkeypatch):
    rng = random.Random(82)
    jobs = [job_for(*random_pair(rng, 200, 0.1)) for _ in range(6)]
    aligner = Aligner(WfasicConfig(backtrace=False))
    sizes = []
    for job in jobs:
        memo.clear()
        aligner.trace(job)
        sizes.append(memo.nbytes)
    memo.clear()
    bound = sizes[-1] + sizes[-2]
    monkeypatch.setattr(memo, "max_bytes", bound)
    for job in jobs:
        aligner.trace(job)
        assert memo.nbytes <= bound
    assert len(memo) == 2
    made = len(traces)
    aligner.trace(jobs[-1])  # most recent: a hit
    assert len(traces) == made
    aligner.trace(jobs[0])  # evicted: traced again
    assert len(traces) == made + 1 and memo.nbytes <= bound


def test_a_trace_over_the_bound_is_not_kept(memo, traces, monkeypatch):
    rng = random.Random(83)
    small = job_for(*random_pair(rng, 50, 0.1))
    large = job_for(*random_pair(rng, 600, 0.1))
    aligner = Aligner(WfasicConfig(backtrace=False))
    aligner.trace(small)
    monkeypatch.setattr(memo, "max_bytes", memo.nbytes + 1)
    aligner.trace(large)
    aligner.trace(small)
    assert len(memo) == 1 and len(traces) == 2


def test_threads_sharing_the_memo_keep_its_accounting(memo, monkeypatch):
    # Engine batches of the served front-end run in executor threads.
    rng = random.Random(84)
    jobs = [job_for(*random_pair(rng, 40, 0.1)) for _ in range(8)]
    aligner = Aligner(WfasicConfig(backtrace=False))
    expected = [aligner.run(job).cycles for job in jobs]
    monkeypatch.setattr(memo, "max_bytes", memo.nbytes // 3)
    memo.clear()
    failures = []

    def work(offset):
        for i in range(40):
            k = (i + offset) % len(jobs)
            if aligner.run(jobs[k]).cycles != expected[k]:
                failures.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert memo.nbytes == sum(size for _, size in memo._entries.values())
    assert 0 < memo.nbytes <= memo.max_bytes
