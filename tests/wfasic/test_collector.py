"""Unit tests for the Collector BT/NBT result framing (§4.4)."""

import random

import pytest

from repro.wfasic import (
    Aligner,
    CollectorBT,
    CollectorNBT,
    WfasicConfig,
)
from repro.wfasic.aligner import AlignerRun, AlignerStats
from repro.wfasic.packets import (
    unpack_bt_transaction,
    unpack_nbt_record,
)

from tests.util import random_pair
from tests.wfasic.test_aligner import job_for


def make_runs(n, *, backtrace, seed=80, n_ps=64):
    rng = random.Random(seed)
    cfg = WfasicConfig(parallel_sections=n_ps, backtrace=backtrace)
    aligner = Aligner(cfg)
    runs = []
    for aid in range(n):
        a, b = random_pair(rng, rng.randint(20, 60), 0.2)
        runs.append(aligner.run(job_for(a, b, aid=aid)))
    return runs


class TestCollectorNBT:
    def test_four_records_per_transaction(self):
        out = CollectorNBT().collect(make_runs(8, backtrace=False))
        assert out.num_transactions == 2
        assert out.total_bytes == 32

    def test_partial_transaction_padded(self):
        out = CollectorNBT().collect(make_runs(5, backtrace=False))
        assert out.num_transactions == 2
        assert len(out.transactions[1]) == 16

    def test_records_decode_in_order(self):
        runs = make_runs(6, backtrace=False)
        stream = CollectorNBT().collect(runs).as_stream()
        for i, run in enumerate(runs):
            rec = unpack_nbt_record(stream[i * 4 : i * 4 + 4])
            assert rec.alignment_id == run.alignment_id
            assert rec.score == run.score
            assert rec.success == run.success

    def test_empty_batch(self):
        out = CollectorNBT().collect([])
        assert out.num_transactions == 0


class TestCollectorBT:
    def test_frame_run_structure(self):
        runs = make_runs(1, backtrace=True)
        txns = CollectorBT().frame_run(runs[0])
        # 4 transactions per 40-byte block plus the final score record.
        assert len(txns) == 4 * (len(runs[0].bt_payload) // 40) + 1
        parsed = [unpack_bt_transaction(t) for t in txns]
        assert all(not p.last for p in parsed[:-1])
        assert parsed[-1].last
        # Counters are consecutive per alignment.
        assert [p.counter for p in parsed] == list(range(len(parsed)))

    def test_collect_keeps_alignments_consecutive(self):
        runs = make_runs(3, backtrace=True)
        out = CollectorBT().collect(runs)
        ids = [unpack_bt_transaction(t).alignment_id for t in out.transactions]
        # IDs form contiguous runs in completion order.
        seen = []
        for aid in ids:
            if not seen or seen[-1] != aid:
                seen.append(aid)
        assert seen == [r.alignment_id for r in runs]

    def test_interleave_mixes_streams(self):
        runs = make_runs(4, backtrace=True, seed=81)
        out = CollectorBT().interleave(runs, num_aligners=2)
        ids = [unpack_bt_transaction(t).alignment_id for t in out.transactions]
        # Same transaction multiset as the consecutive stream...
        flat = CollectorBT().collect(runs)
        assert sorted(out.transactions) == sorted(flat.transactions)
        # ...but the first two alignments interleave.
        first_last = max(i for i, aid in enumerate(ids) if aid == runs[0].alignment_id)
        second_first = min(
            i for i, aid in enumerate(ids) if aid == runs[1].alignment_id
        )
        assert second_first < first_last

    def test_interleave_single_aligner_is_consecutive(self):
        runs = make_runs(3, backtrace=True, seed=82)
        assert (
            CollectorBT().interleave(runs, 1).transactions
            == CollectorBT().collect(runs).transactions
        )

    def test_run_without_bt_rejected(self):
        runs = make_runs(1, backtrace=False)
        with pytest.raises(ValueError):
            CollectorBT().frame_run(runs[0])

    def test_failed_run_still_reports(self):
        cfg = WfasicConfig(k_max=4, backtrace=True)
        run = Aligner(cfg).run(job_for("A" * 2, "A" * 40, aid=9))
        assert not run.success
        txns = CollectorBT().frame_run(run)
        final = unpack_bt_transaction(txns[-1])
        assert final.last and final.alignment_id == 9

    @staticmethod
    def run_with_blocks(blocks, aid=1):
        return AlignerRun(
            alignment_id=aid,
            success=True,
            score=8,
            k_reached=0,
            cycles=0,
            stats=AlignerStats(),
            bt_payload=b"".join(blocks),
        )

    def test_frame_run_rejects_23_bit_id_overflow(self):
        with pytest.raises(ValueError, match="23 bits"):
            CollectorBT().frame_run(self.run_with_blocks([bytes(40)], aid=2**23))

    def test_frame_run_rejects_24_bit_counter_overflow(self):
        # 17 x 2**20 transactions: 2**20 past the 24-bit counter.  One
        # zero-filled payload (17 blocks of 10 MiB joined), not touched.
        payload = bytes(17 * 10 * 2**20)
        with pytest.raises(ValueError, match="24 bits"):
            CollectorBT().frame_run(self.run_with_blocks([payload]))

    # A run's payload is one buffer, so only its total length can be
    # wrong: an empty payload is a run without blocks (tested below).
    @pytest.mark.parametrize("sizes", [[13], [40, 15], [40, 5], [5]])
    def test_frame_run_rejects_bad_block_size(self, sizes):
        blocks = [bytes(size) for size in sizes]
        with pytest.raises(ValueError, match="multiple of 10"):
            CollectorBT().frame_run(self.run_with_blocks(blocks))

    def test_frame_run_without_blocks_is_final_record_only(self):
        txns = CollectorBT().frame_run(self.run_with_blocks([], aid=5))
        assert len(txns) == 1
        final = unpack_bt_transaction(txns[0])
        assert final.last and final.counter == 0 and final.alignment_id == 5

    def test_interleave_turn_is_one_configured_block(self):
        # At 32 PS a block is 20 bytes: each alignment in flight sends two
        # transactions per turn.
        runs = make_runs(2, backtrace=True, n_ps=32, seed=84)
        out = CollectorBT(block_bytes=20).interleave(runs, num_aligners=2)
        ids = [unpack_bt_transaction(t).alignment_id for t in out.transactions]
        assert ids[:8] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_32ps_blocks_two_transactions_each(self):
        runs = make_runs(1, backtrace=True, n_ps=32, seed=83)
        txns = CollectorBT().frame_run(runs[0])
        assert len(txns) == 2 * (len(runs[0].bt_payload) // 20) + 1
