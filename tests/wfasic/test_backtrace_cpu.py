"""Tests for the CPU-side backtrace (§4.5): both methods, full fidelity."""

import random

import pytest

from repro.align import swg_align
from repro.wfasic import (
    Aligner,
    BacktraceStreamError,
    CollectorBT,
    CpuBacktracer,
    StepIndex,
    WfasicConfig,
)
from repro.wfasic import backtrace_cpu
from repro.wfasic.backtrace_cpu import CpuBacktraceWork, parse_bt_stream

from tests.util import assert_valid_cigar, random_pair
from tests.wfasic.test_aligner import job_for


def run_batch(pairs, cfg, aids=None):
    aligner = Aligner(cfg)
    runs = []
    for i, (a, b) in enumerate(pairs):
        runs.append(aligner.run(job_for(a, b, aid=(aids[i] if aids else i))))
    return runs


class TestNoSeparation:
    def test_cigars_match_oracle(self):
        rng = random.Random(90)
        cfg = WfasicConfig.paper_default(backtrace=True)
        pairs = [random_pair(rng, rng.randint(10, 80), 0.25) for _ in range(8)]
        runs = run_batch(pairs, cfg)
        stream = CollectorBT().collect(runs).as_stream()
        seqs = {i: p for i, p in enumerate(pairs)}
        results, work = CpuBacktracer(cfg).process(stream, seqs, separate=False)
        assert len(results) == 8
        for (a, b), res in zip(pairs, results):
            ref = swg_align(a, b)
            assert res.success and res.score == ref.score
            assert_valid_cigar(res.cigar, a, b, cfg.penalties, ref.score)
        assert work.separation_bytes == 0
        assert work.transactions_scanned == len(stream) // 16

    def test_identical_pair(self):
        cfg = WfasicConfig.paper_default(backtrace=True)
        a = "ACGT" * 10
        runs = run_batch([(a, a)], cfg)
        stream = CollectorBT().collect(runs).as_stream()
        results, _ = CpuBacktracer(cfg).process(stream, {0: (a, a)}, separate=False)
        assert results[0].score == 0
        assert results[0].cigar.ops == "M" * 40

    def test_gap_run_not_split_by_coincidental_match(self):
        # Inside a deletion run the sequences can agree by coincidence;
        # the reconstruction must keep the run contiguous (one opening).
        cfg = WfasicConfig.paper_default(backtrace=True)
        a, b = "AAAATTAAAA", "AAAAAAAA"  # delete "TT" (or equivalent)
        runs = run_batch([(a, b)], cfg)
        stream = CollectorBT().collect(runs).as_stream()
        results, _ = CpuBacktracer(cfg).process(stream, {0: (a, b)}, separate=False)
        ref = swg_align(a, b)
        assert results[0].score == ref.score
        assert results[0].cigar.score(cfg.penalties) == ref.score
        assert results[0].cigar.num_gap_opens() == 1

    def test_failed_alignment_reported_unsuccessful(self):
        cfg = WfasicConfig(k_max=6, backtrace=True)
        runs = run_batch([("A" * 30, "T" * 30)], cfg)
        assert not runs[0].success
        stream = CollectorBT().collect(runs).as_stream()
        results, _ = CpuBacktracer(cfg).process(
            stream, {0: ("A" * 30, "T" * 30)}, separate=False
        )
        assert not results[0].success
        assert results[0].cigar is None

    def test_interleaved_stream_rejected(self):
        rng = random.Random(91)
        cfg = WfasicConfig(num_aligners=2, backtrace=True)
        pairs = [random_pair(rng, 40, 0.2) for _ in range(4)]
        runs = run_batch(pairs, cfg)
        stream = CollectorBT().interleave(runs, 2).as_stream()
        with pytest.raises(BacktraceStreamError):
            CpuBacktracer(cfg).process(
                stream, {i: p for i, p in enumerate(pairs)}, separate=False
            )


class TestSeparation:
    def test_interleaved_stream_recovered(self):
        rng = random.Random(92)
        cfg = WfasicConfig(num_aligners=3, backtrace=True)
        pairs = [random_pair(rng, rng.randint(20, 60), 0.3) for _ in range(6)]
        runs = run_batch(pairs, cfg)
        stream = CollectorBT().interleave(runs, 3).as_stream()
        seqs = {i: p for i, p in enumerate(pairs)}
        results, work = CpuBacktracer(cfg).process(stream, seqs, separate=True)
        for res in results:
            a, b = seqs[res.alignment_id]
            ref = swg_align(a, b)
            assert res.success and res.score == ref.score
            assert_valid_cigar(res.cigar, a, b, cfg.penalties, ref.score)
        # Every payload byte was moved during separation.
        assert work.separation_bytes == 10 * work.transactions_scanned

    def test_separation_works_on_consecutive_stream_too(self):
        rng = random.Random(93)
        cfg = WfasicConfig.paper_default(backtrace=True)
        pairs = [random_pair(rng, 30, 0.2) for _ in range(3)]
        runs = run_batch(pairs, cfg)
        stream = CollectorBT().collect(runs).as_stream()
        results, _ = CpuBacktracer(cfg).process(
            stream, {i: p for i, p in enumerate(pairs)}, separate=True
        )
        assert all(r.success for r in results)


class TestStreamValidation:
    def test_truncated_stream_rejected(self):
        cfg = WfasicConfig.paper_default(backtrace=True)
        with pytest.raises(BacktraceStreamError):
            CpuBacktracer(cfg).process(b"\x00" * 15, {}, separate=False)

    def test_missing_last_flag_rejected(self):
        rng = random.Random(94)
        cfg = WfasicConfig.paper_default(backtrace=True)
        pairs = [random_pair(rng, 30, 0.2)]
        runs = run_batch(pairs, cfg)
        stream = CollectorBT().collect(runs).as_stream()
        with pytest.raises(BacktraceStreamError):
            CpuBacktracer(cfg).process(stream[:-16], {0: pairs[0]}, separate=False)

    def test_corrupt_payload_detected(self):
        rng = random.Random(95)
        cfg = WfasicConfig.paper_default(backtrace=True)
        a, b = random_pair(rng, 60, 0.3)
        runs = run_batch([(a, b)], cfg)
        stream = bytearray(CollectorBT().collect(runs).as_stream())
        # Flip payload bits in the middle of the stream; the walk must
        # either produce an invalid chain (error) or a non-optimal CIGAR
        # (which we'd catch by score mismatch) — never crash.
        if len(stream) > 64:
            stream[5] ^= 0xFF
            stream[21] ^= 0xFF
        try:
            results, _ = CpuBacktracer(cfg).process(
                bytes(stream), {0: (a, b)}, separate=False
            )
            if results[0].cigar is not None:
                results[0].cigar.validate(a, b)
        except BacktraceStreamError:
            pass  # detection is the expected outcome

    def test_unknown_alignment_id(self):
        rng = random.Random(96)
        cfg = WfasicConfig.paper_default(backtrace=True)
        pairs = [random_pair(rng, 30, 0.2)]
        runs = run_batch(pairs, cfg, aids=[7])
        stream = CollectorBT().collect(runs).as_stream()
        with pytest.raises(BacktraceStreamError):
            CpuBacktracer(cfg).process(stream, {0: pairs[0]}, separate=False)

    def test_empty_stream(self):
        cfg = WfasicConfig.paper_default(backtrace=True)
        results, work = CpuBacktracer(cfg).process(b"", {}, separate=False)
        assert results == []
        assert work.transactions_scanned == 0


def _parse(stream):
    parsed = parse_bt_stream(stream, separate=False, work=CpuBacktraceWork())
    return [(p.alignment_id, p.score, p.payload.tobytes()) for p in parsed]


class TestNoSeparationScan:
    """The no-separation parse checks IDs and counter order on the
    stream's own words, a bounded number of rows at a time."""

    @pytest.fixture
    def stream(self):
        rng = random.Random(98)
        cfg = WfasicConfig.paper_default(backtrace=True)
        pairs = [random_pair(rng, rng.randint(60, 120), 0.2) for _ in range(3)]
        return bytes(CollectorBT().collect(run_batch(pairs, cfg)).as_stream())

    @staticmethod
    def _swap(stream, i, j):
        rows = bytearray(stream)
        ri, rj = rows[16 * i : 16 * i + 16], rows[16 * j : 16 * j + 16]
        rows[16 * i : 16 * i + 16], rows[16 * j : 16 * j + 16] = rj, ri
        return bytes(rows)

    @pytest.mark.parametrize("scan_rows", [1, 2, 3, 1 << 15])
    def test_scan_width_does_not_change_the_parse(self, stream, monkeypatch, scan_rows):
        expected = _parse(stream)
        shuffled = self._swap(stream, 1, 4)
        expected_shuffled = _parse(shuffled)
        monkeypatch.setattr(backtrace_cpu, "_SCAN_ROWS", scan_rows)
        assert _parse(stream) == expected
        assert _parse(shuffled) == expected_shuffled

    @pytest.mark.parametrize("scan_rows", [2, 1 << 15])
    def test_out_of_order_counters_are_reordered(self, stream, monkeypatch, scan_rows):
        monkeypatch.setattr(backtrace_cpu, "_SCAN_ROWS", scan_rows)
        assert _parse(self._swap(stream, 0, 3)) == _parse(stream)

    @pytest.mark.parametrize("scan_rows", [2, 1 << 15])
    def test_counter_tied_with_last_rejected(self, stream, monkeypatch, scan_rows):
        monkeypatch.setattr(backtrace_cpu, "_SCAN_ROWS", scan_rows)
        rows = bytearray(stream)
        end = next(r for r in range(len(rows) // 16) if rows[16 * r + 15] & 0x80)
        rows[16 * 0 + 10 : 16 * 0 + 13] = rows[16 * end + 10 : 16 * end + 13]
        with pytest.raises(BacktraceStreamError, match="Last-flag"):
            _parse(bytes(rows))

    @pytest.mark.parametrize("scan_rows", [2, 1 << 15])
    def test_foreign_id_in_a_later_pass_rejected(self, stream, monkeypatch, scan_rows):
        monkeypatch.setattr(backtrace_cpu, "_SCAN_ROWS", scan_rows)
        rows = bytearray(stream)
        rows[16 * 5 + 13] ^= 0x01  # low bit of the alignment ID
        with pytest.raises(BacktraceStreamError, match="interleaved"):
            _parse(bytes(rows))


class TestStepIndex:
    def test_block_layout_matches_aligner(self):
        rng = random.Random(97)
        cfg = WfasicConfig.paper_default(backtrace=True)
        for _ in range(5):
            a, b = random_pair(rng, rng.randint(30, 100), 0.2)
            run = Aligner(cfg).run(job_for(a, b))
            idx = StepIndex(cfg, len(a), len(b), run.score)
            assert idx.total_blocks * cfg.bt_block_bytes == len(run.bt_payload)

    def test_locate_bounds(self):
        cfg = WfasicConfig.paper_default(backtrace=True)
        idx = StepIndex(cfg, 100, 100, 20)
        with pytest.raises(BacktraceStreamError):
            idx.locate(3, 0)  # score 3 unreachable
        with pytest.raises(BacktraceStreamError):
            idx.locate(8, 50)  # far outside the band at score 8

    def test_locate_slot_arithmetic(self):
        cfg = WfasicConfig.paper_default(backtrace=True)
        idx = StepIndex(cfg, 1000, 1000, 300)
        # At score 8 the band is -1..1: cell k=0 is slot 1 of block 0...
        block, slot = idx.locate(8, 0)
        assert slot == 1
        # and blocks of later steps come after earlier steps'.
        b2, _ = idx.locate(10, 0)
        assert b2 > block


class TestWorkCounters:
    def test_merge(self):
        w1 = CpuBacktraceWork(transactions_scanned=5, separation_bytes=50)
        w2 = CpuBacktraceWork(walk_ops=3, match_chars=40)
        w1.merge(w2)
        assert w1.transactions_scanned == 5
        assert w1.walk_ops == 3 and w1.match_chars == 40
