"""Fault-injection tests for the batch engine's isolation guarantees.

The contract under test (ISSUE 3 / DESIGN.md "error handling contract"):
a batch containing malformed or crashing pairs returns per-pair
structured errors for exactly those pairs and bit-identical results for
all others, across backends and worker counts — ``align_pairs`` never
raises for per-pair data errors unless ``strict=True``.

The :class:`FaultInjectionBackend` crashes in configurable ways when it
sees a poison pattern.  The process-killing modes (``exit``/``hang``)
only fire inside worker processes (``multiprocessing.parent_process()``
is not ``None``) and raise a plain exception in the engine process, so
quarantine replay can be exercised without ever killing the test run.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.engine import (
    AlignmentBackend,
    BatchAlignmentEngine,
    EngineConfig,
    align_pairs,
    register_backend,
)
from repro.engine.backends import _BACKENDS, PairOutcome
from repro.metrics.cups import swg_equivalent_cells
from repro.engine.validation import (
    ERROR_BACKEND,
    ERROR_INVALID_BASE,
    ERROR_TIMEOUT,
    ERROR_UNSUPPORTED_READ,
    ERROR_WORKER_LOST,
)

#: Valid DNA, so the poison pair sails through validation and reaches
#: the backend — the fault is the backend's, not the input's.
POISON = "GATTACAGATTACAGA"


class FaultInjectionBackend(AlignmentBackend):
    """Deterministic backend that fails on the poison pattern.

    ``mode``:
      * ``"raise"`` — plain Python exception (everywhere),
      * ``"exit"``  — ``os._exit`` in worker processes (hard death),
      * ``"hang"``  — sleeps forever in worker processes.

    ``crash_once_path``: with ``"exit"``, crash only while this marker
    file does not exist (created just before dying), so the first
    resubmission succeeds — simulating a transient worker loss.
    """

    name = "faulty"

    def __init__(self, mode: str = "raise", crash_once_path: str | None = None):
        self.mode = mode
        self.crash_once_path = crash_once_path

    def _in_worker(self) -> bool:
        return multiprocessing.parent_process() is not None

    def align_chunk(self, items, penalties, backtrace, band_width=None):
        out = []
        for slot, a, b in items:
            if a == POISON and self.mode != "none":
                if self.mode == "exit" and self._in_worker():
                    if self.crash_once_path is None:
                        os._exit(17)
                    if not os.path.exists(self.crash_once_path):
                        with open(self.crash_once_path, "w"):
                            pass
                        os._exit(17)
                elif self.mode == "hang" and self._in_worker():
                    time.sleep(600)
                else:
                    raise RuntimeError(f"injected fault at slot {slot}")
            out.append(PairOutcome(slot, score=len(a) + len(b)))
        return out, None


@pytest.fixture()
def faulty():
    def install(**kwargs):
        backend = FaultInjectionBackend(**kwargs)
        register_backend(backend, replace=True)
        return backend

    yield install
    _BACKENDS.pop("faulty", None)


GOOD = ["ACGT", "AACCGGTT", "TTTTACGT", "CCCC", "GGTTAACC"]


def good_batch():
    return [(seq, seq) for seq in GOOD]


class TestPerPairBackendIsolation:
    """One raising pair costs exactly one outcome, never the chunk."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_raise_isolated_per_pair(self, faulty, workers):
        faulty(mode="raise")
        batch = good_batch()[:2] + [(POISON, POISON)] + good_batch()[2:]
        res = align_pairs(
            batch, backend="faulty", workers=workers, chunk_size=2,
            cache_size=0,
        )
        bad = res.outcomes[2]
        assert not bad.ok and not bad.success
        assert bad.error_kind == ERROR_BACKEND
        assert "injected fault" in bad.error_msg
        for idx, (a, b) in enumerate(batch):
            if idx == 2:
                continue
            o = res.outcomes[idx]
            assert o.ok and o.success and o.score == len(a) + len(b)
        assert res.report.errors == 1
        assert res.report.rejected == 0

    def test_strict_restores_raise(self, faulty):
        faulty(mode="raise")
        with pytest.raises(RuntimeError, match="injected fault"):
            align_pairs(
                good_batch() + [(POISON, POISON)],
                backend="faulty", strict=True, cache_size=0,
            )

    def test_errored_outcomes_not_cached(self, faulty):
        backend = faulty(mode="raise")
        config = EngineConfig(backend="faulty", cache_size=64)
        with BatchAlignmentEngine(config) as engine:
            first = engine.align_batch([(POISON, POISON)])
            assert not first.outcomes[0].ok
            # A fixed backend must get a fresh chance, not a cached error.
            backend.mode = "none"
            second = engine.align_batch([(POISON, POISON)])
        assert second.outcomes[0].ok
        assert second.report.cache_hits == 0


class TestValidationIsolation:
    """Boundary rejections are per-pair and never reach a backend."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_mixed_malformed_batch(self, workers):
        batch = [
            ("ACGT", "ACGT"),     # good
            ("acgt", "ACGT"),     # lowercase: normalized, bit-identical
            ("ACNT", "ACGT"),     # 'N': unsupported read (§4.2 policy)
            ("ACQT", "ACGT"),     # invalid charset: rejected as error
            ("AAAA", "TTTT"),     # good
        ]
        res = align_pairs(
            batch, backend="batched", workers=workers, chunk_size=1,
            cache_size=0,
        )
        assert [o.ok for o in res.outcomes] == [True, True, True, False, True]
        assert res.outcomes[1].score == res.outcomes[0].score == 0
        unsupported = res.outcomes[2]
        assert unsupported.ok and not unsupported.success
        assert unsupported.error_kind == ERROR_UNSUPPORTED_READ
        invalid = res.outcomes[3]
        assert invalid.error_kind == ERROR_INVALID_BASE
        assert "ACGTN" in invalid.error_msg
        assert res.report.rejected == 2
        assert res.report.errors == 1
        assert res.outcomes[4].score == 16

    def test_bytes_raise_typed_error_naming_slot(self):
        with pytest.raises(TypeError, match=r"pair 1: pattern must be str"):
            align_pairs([("ACGT", "ACGT"), (b"ACGT", "ACGT")])
        with pytest.raises(TypeError, match=r"pair 0: text must be str"):
            align_pairs([("ACGT", 7)])

    def test_rejected_pairs_excluded_from_gcups_cells(self):
        res = align_pairs([("ACGT", "ACGT"), ("ACGN", "ACGN")])
        assert res.report.swg_cells == 16  # only the served pair counts

    def test_unsupported_reads_excluded_from_gcups_cells(self):
        # The wfasic backend answers a read past its MAX_READ_LEN with
        # success=0 and never aligns it: no work to count.
        short = ("ACGTACGT", "ACGAACGT")
        res = align_pairs([short, ("A" * 10_001, "A" * 10_001)], backend="wfasic")
        assert res.outcomes[0].success and not res.outcomes[1].success
        assert res.report.swg_cells == swg_equivalent_cells(8, 8)

    def test_unsupported_reads_not_counted_as_aligned(self):
        # A pair the backend answers unsupported was dispatched but not
        # aligned: swg past its DP-cell limit, wfasic past MAX_READ_LEN.
        long = "ACGT" * 2500
        res = align_pairs([(long, long[::-1]), ("ACGT", "ACGA")], backend="swg")
        assert not res.outcomes[0].success and res.outcomes[1].success
        assert res.report.pairs_aligned == 1
        res = align_pairs(
            [("A" * 10_001, "A" * 10_001), ("ACGT", "ACGA")], backend="wfasic"
        )
        assert not res.outcomes[0].success and res.outcomes[1].success
        assert res.report.pairs_aligned == 1


dna = st.text(alphabet="ACGT", min_size=0, max_size=24)
malformed = st.sampled_from(["ACQT", "AC!T", "NNNN", "ACGN", "xyz"])


class TestFaultIsolationInvariant:
    """Property: K malformed pairs never perturb the other N-K results."""

    @given(
        good=st.lists(st.tuples(dna, dna), min_size=1, max_size=6),
        bad=st.lists(malformed, min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_good_pairs_bit_identical_to_solo_runs(self, good, bad, seed):
        batch = [(a, b) for a, b in good]
        for i, seq in enumerate(bad):
            batch.insert((seed + i) % (len(batch) + 1), (seq, "ACGT"))
        res = align_pairs(
            batch, backend="batched", backtrace=True, cache_size=0
        )
        assert len(res.outcomes) == len(batch)
        for (a, b), outcome in zip(batch, res.outcomes):
            if set(a) - set("ACGT"):
                assert not outcome.ok or not outcome.success
                continue
            solo = align_pairs(
                [(a, b)], backend="batched", backtrace=True, cache_size=0
            ).outcomes[0]
            assert (outcome.score, outcome.success, outcome.cigar) == (
                solo.score, solo.success, solo.cigar
            )
            assert outcome.ok


@pytest.mark.slow
class TestWorkerFaultTolerance:
    """The multiprocessing path survives worker death and hangs."""

    def test_worker_death_loses_no_good_pairs(self, faulty):
        # The poison pair kills its worker on every attempt; after the
        # bounded resubmission the chunk is quarantined pair-by-pair, so
        # the good pair sharing its chunk still comes back.
        faulty(mode="exit")
        batch = good_batch() + [(POISON, POISON)] + good_batch()
        res = align_pairs(
            batch, backend="faulty", workers=4, chunk_size=2, cache_size=0,
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

    def test_transient_worker_death_recovers_by_resubmission(
        self, faulty, tmp_path
    ):
        faulty(mode="exit", crash_once_path=str(tmp_path / "crashed.marker"))
        batch = good_batch() + [(POISON, POISON)]
        res = align_pairs(
            batch, backend="faulty", workers=2, chunk_size=2, cache_size=0,
            chunk_timeout=3.0, max_chunk_retries=2,
        )
        assert all(o.ok for o in res.outcomes)
        assert res.outcomes[-1].score == 2 * len(POISON)
        assert res.report.retries >= 1
        assert res.report.errors == 0

    def test_hung_worker_times_out_per_pair(self, faulty):
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
        # The hung chunk is quarantined pair by pair in fresh processes
        # (accounted to the engine process): its healthy neighbour gets
        # its real result, and only the hanging pair errors.
        assert batch[-2] == good_batch()[-1]  # shares the poison's chunk
        assert res.report.errors == 1
        assert os.getpid() in {w.worker_id for w in res.report.worker_stats}

    def test_unusable_pool_degrades_in_process(self, faulty, monkeypatch):
        faulty(mode="raise")
        monkeypatch.setattr(
            BatchAlignmentEngine,
            "_ensure_pool",
            lambda self: (_ for _ in ()).throw(OSError("no processes left")),
        )
        batch = good_batch() + [(POISON, POISON)]
        res = align_pairs(
            batch, backend="faulty", workers=4, chunk_size=2, cache_size=0
        )
        assert [o.ok for o in res.outcomes] == [True] * 5 + [False]
        assert res.outcomes[-1].error_kind == ERROR_BACKEND
