"""The parallel dispatch battery: bit-identity, leaks, crash parity.

The pickled chunk protocol (``workers > 1``) must be
*indistinguishable* from the in-process path in every observable —
per-pair scores, success flags, CIGARs, error channels and the
report's work counters — and must leave nothing behind in ``/dev/shm``
after any batch, including batches whose workers were killed mid-chunk
(the poison-backend scenarios of ``test_fault_tolerance.py``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.align import WfaAligner
from repro.engine import BatchAlignmentEngine, align_pairs, register_backend
from repro.engine.backends import _BACKENDS
from repro.engine.validation import ERROR_TIMEOUT, ERROR_WORKER_LOST
from repro.workloads import PairGenerator
from tests.util import shm_entries

from .test_fault_tolerance import POISON, FaultInjectionBackend, good_batch


@pytest.fixture()
def faulty():
    def install(**kwargs):
        backend = FaultInjectionBackend(**kwargs)
        register_backend(backend, replace=True)
        return backend

    yield install
    _BACKENDS.pop("faulty", None)


def _outcome_key(o):
    return (o.slot, o.score, o.success, o.cigar, o.ok, o.error_kind, o.error_msg)


def _report_key(r):
    return (
        r.num_pairs,
        r.pairs_aligned,
        r.cache_hits,
        r.coalesced,
        r.errors,
        r.rejected,
        r.swg_cells,
    )


def _mixed_batch(seed: int = 0, count: int = 24) -> list[tuple[str, str]]:
    """Generated pairs plus the boundary cases every path must agree on."""
    gen = PairGenerator(length=60, error_rate=0.08, seed=seed)
    batch = [(p.pattern, p.text) for p in gen.batch(count)]
    batch += [
        ("", ""),            # both empty
        ("", "ACGT"),        # empty pattern
        ("ACGT", ""),        # empty text
        ("A", "A"),          # minimal
        ("ACGT", "ACGT"),    # duplicate of a generated shape: coalescing
        ("ACGT", "ACGT"),
        ("ACGN", "ACGT"),    # unsupported read: answered per pair
        ("ACQT", "ACGT"),    # invalid charset: rejected before dispatch
    ]
    return batch


def _run(batch, *, backend, backtrace, workers):
    return align_pairs(
        batch,
        backend=backend,
        backtrace=backtrace,
        workers=workers,
        chunk_size=4,
        cache_size=0,
    )


class TestDifferentialBitIdentity:
    """in-process == workers=2, observable for observable."""

    @pytest.mark.parametrize("backtrace", [False, True])
    def test_paths_agree(self, backtrace):
        batch = _mixed_batch(seed=7)
        solo = _run(batch, backend="batched", backtrace=backtrace, workers=1)
        parallel = _run(batch, backend="batched", backtrace=backtrace, workers=2)
        assert [_outcome_key(o) for o in parallel.outcomes] == [
            _outcome_key(o) for o in solo.outcomes
        ]
        assert _report_key(parallel.report) == _report_key(solo.report)
        # Both equal the scalar aligner on every pair that was aligned.
        aligner = WfaAligner(keep_backtrace=backtrace)
        aligned = 0
        for (a, b), o in zip(batch, parallel.outcomes):
            if o.ok and o.success:
                ref = aligner.align(a, b)
                cigar = ref.cigar.compact() if backtrace else None
                assert (o.score, o.cigar) == (ref.score, cigar)
                assert o.peak_wavefront_bytes == ref.work.peak_wavefront_bytes
                aligned += 1
        assert aligned == len(batch) - 2  # all but the N and Q pairs

    @pytest.mark.slow
    def test_wfasic_backend_agrees(self):
        batch = _mixed_batch(seed=11, count=12)
        solo = _run(batch, backend="wfasic", backtrace=True, workers=1)
        parallel = _run(batch, backend="wfasic", backtrace=True, workers=2)
        assert [_outcome_key(o) for o in parallel.outcomes] == [
            _outcome_key(o) for o in solo.outcomes
        ]
        assert _report_key(parallel.report) == _report_key(solo.report)

    def test_golden_vectors_on_the_parallel_path(self):
        # Anchors independent of the differential: an exact match and a
        # known single-substitution pair.
        res = _run(
            [("ACGTACGT", "ACGTACGT"), ("ACGTACGT", "ACGAACGT")],
            backend="batched", backtrace=True, workers=2,
        )
        exact, sub = res.outcomes
        assert exact.ok and exact.success and exact.score == 0
        assert exact.cigar == "8M"
        assert sub.ok and sub.success and sub.score != 0
        assert sub.cigar.count("X") >= 1 or "8M" != sub.cigar

    def test_profile_carries_the_new_stages(self):
        res = _run(_mixed_batch(), backend="batched", backtrace=False, workers=2)
        profile = res.report.profile
        for stage in ("resolve", "dispatch", "execute", "ipc", "gather"):
            assert stage in profile, stage
        assert profile["ipc"]["seconds"] >= 0.0


class TestFaultToleranceParity:
    """The poison scenarios, replayed on the parallel path."""

    def test_raise_isolated_per_pair(self, faulty):
        faulty(mode="raise")
        batch = good_batch()[:2] + [(POISON, POISON)] + good_batch()[2:]
        res = align_pairs(
            batch, backend="faulty", workers=2, chunk_size=2, cache_size=0
        )
        assert not res.outcomes[2].ok
        good = [o for i, o in enumerate(res.outcomes) if i != 2]
        assert all(o.ok and o.success for o in good)
        assert res.report.errors == 1

    def test_error_channel_identical_across_paths(self, faulty):
        faulty(mode="raise")
        batch = good_batch() + [(POISON, POISON)]
        solo, parallel = (
            align_pairs(
                batch, backend="faulty", workers=workers, chunk_size=2,
                cache_size=0,
            )
            for workers in (1, 2)
        )
        assert [_outcome_key(o) for o in parallel.outcomes] == [
            _outcome_key(o) for o in solo.outcomes
        ]

    @pytest.mark.slow
    def test_worker_death_quarantines_and_leaks_nothing(self, faulty):
        before = shm_entries()
        faulty(mode="exit")
        batch = good_batch() + [(POISON, POISON)] + good_batch()
        res = align_pairs(
            batch, backend="faulty", workers=2, chunk_size=2, cache_size=0,
            chunk_timeout=3.0, max_chunk_retries=1,
        )
        for idx, (a, b) in enumerate(batch):
            o = res.outcomes[idx]
            if a == POISON:
                assert not o.ok
                assert o.error_kind == ERROR_WORKER_LOST
            else:
                assert o.ok and o.score == len(a) + len(b), (idx, o)
        assert res.report.errors == 1
        assert res.report.retries >= 1
        assert shm_entries() - before == set()

    @pytest.mark.slow
    def test_transient_worker_death_recovers(self, faulty, tmp_path):
        faulty(mode="exit", crash_once_path=str(tmp_path / "crashed.marker"))
        batch = good_batch() + [(POISON, POISON)]
        res = align_pairs(
            batch, backend="faulty", workers=2, chunk_size=2, cache_size=0,
            chunk_timeout=3.0, max_chunk_retries=2,
        )
        assert all(o.ok for o in res.outcomes)
        assert res.outcomes[-1].score == 2 * len(POISON)
        assert res.report.retries >= 1

    @pytest.mark.slow
    def test_hung_worker_times_out(self, faulty):
        before = shm_entries()
        faulty(mode="hang")
        batch = good_batch() + [(POISON, POISON)]
        res = align_pairs(
            batch, backend="faulty", workers=2, chunk_size=2, cache_size=0,
            chunk_timeout=1.5, max_chunk_retries=0,
        )
        hung = res.outcomes[-1]
        assert not hung.ok
        assert hung.error_kind == ERROR_TIMEOUT
        for o, (a, b) in zip(res.outcomes, batch):
            if a != POISON:
                assert o.ok and o.score == len(a) + len(b)
        assert shm_entries() - before == set()

    def test_unusable_pool_degrades_in_process(self, faulty, monkeypatch):
        faulty(mode="raise")
        monkeypatch.setattr(
            BatchAlignmentEngine,
            "_ensure_pool",
            lambda self: (_ for _ in ()).throw(OSError("no processes left")),
        )
        batch = good_batch() + [(POISON, POISON)]
        res = align_pairs(
            batch, backend="faulty", workers=2, chunk_size=2, cache_size=0
        )
        assert [o.ok for o in res.outcomes] == [True] * 5 + [False]


class TestInterruptedStream:
    """Interrupting a streamed CLI run is clean.

    A SIGTERM (or Ctrl-C) mid-`--stream-chunk` must take the orderly
    exit: the engine context manager still tears down (pool joined, no
    ``/dev/shm`` segment left behind) and the partial merged report
    over the chunks that completed is still printed, with exit code
    130.  Subprocess-based — signals and ``/dev/shm`` lifetimes only
    mean anything across a real process boundary.
    """

    SRC_DIR = Path(__file__).resolve().parents[2] / "src"

    def _spawn_stream(self, tmp_path, num_pairs):
        import subprocess
        import sys

        seq = tmp_path / "stream.seq"
        gen = PairGenerator(length=600, error_rate=0.08, seed=7)
        lines = []
        for pair in gen.batch(num_pairs):
            lines += [f">{pair.pattern}", f"<{pair.text}"]
        seq.write_text("\n".join(lines) + "\n", encoding="ascii")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.SRC_DIR)
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "batch", str(seq),
                "--stream-chunk", "4", "--workers", "2", "--chunk-size", "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def test_sigterm_keeps_partial_report_and_leaks_nothing(self, tmp_path):
        import signal as signal_module
        import time

        before = shm_entries()
        proc = self._spawn_stream(tmp_path, num_pairs=4000)
        try:
            time.sleep(3.0)  # engine up, several chunks through
            proc.send_signal(signal_module.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert "interrupted" in stderr
        # The partial merged report survived: result rows plus the
        # describe() footer over however many chunks completed.
        assert "pairs=" in stdout, stdout
        assert "pair_id\tscore" in stdout
        assert shm_entries() - before == set()

    def test_sigterm_before_any_chunk_is_still_clean(self, tmp_path):
        import signal as signal_module

        before = shm_entries()
        proc = self._spawn_stream(tmp_path, num_pairs=4000)
        try:
            proc.send_signal(signal_module.SIGTERM)  # likely pre-engine
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        # Either nothing completed (the bare notice) or some chunks
        # did (the partial report) — both exit 130 and leak nothing.
        assert proc.returncode in (130, -15), stderr
        assert shm_entries() - before == set()
