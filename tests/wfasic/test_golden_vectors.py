"""Golden known-answer vectors — hardware-style regression pins.

Byte formats are a *contract* between the Extractor, the Collectors and
the CPU backtrace (§4.2/§4.4): any silent change breaks interoperability
with data written by an earlier version.  These vectors pin the exact
bytes, the way an RTL team pins bus-level test vectors.

The dataset golden scores additionally pin the reproducibility of the
named input sets: EXPERIMENTS.md numbers are only comparable across runs
because the sets never drift.
"""

import hashlib

import numpy as np
import pytest

from repro.align import swg_align
from repro.align.wfa import WfaWorkCounters
from repro.soc import Soc
from repro.wfasic import WfasicAccelerator, WfasicConfig
from repro.wfasic.aligner import AlignerStats
from repro.wfasic.packets import (
    NbtRecord,
    encode_input_image,
    encode_pair_record,
    pack_bt_final_block,
    pack_nbt_record,
    pack_origin_codes,
)
from repro.workloads import SequencePair, make_input_set


class TestByteFormatGoldenVectors:
    def test_pair_record(self):
        rec = encode_pair_record(0x11223344, "ACGT", "TGCA", 16)
        assert rec.hex() == (
            "44332211000000000000000000000000"
            "04000000000000000000000000000000"
            "04000000000000000000000000000000"
            "41434754414141414141414141414141"
            "54474341414141414141414141414141"
        )

    def test_nbt_record(self):
        packed = pack_nbt_record(
            NbtRecord(alignment_id=0xBEEF, score=1234, success=True)
        )
        assert packed.hex() == "d284efbe"

    def test_bt_final_block(self):
        txn = pack_bt_final_block(
            success=True, k_reached=-5, score=999, counter=7, alignment_id=42
        )
        assert txn.hex() == "01fbffe70300000000000700002a0080"

    def test_origin_block(self):
        codes = np.array([1, 9, 17, 25, 31], dtype=np.uint8)
        block = pack_origin_codes(codes, 64)[0]
        assert block.hex().startswith("21c5fc01")
        assert len(block) == 40
        assert block[5:] == bytes(35)


class TestEdgeCasePairRecords:
    """Byte-exact §4.2 records for degenerate inputs."""

    def test_empty_pattern_record(self):
        # len_a header is zero; the pattern section is pure dummy 'A's.
        rec = encode_pair_record(1, "", "ACGT", 16)
        assert rec.hex() == (
            "01000000000000000000000000000000"
            "00000000000000000000000000000000"
            "04000000000000000000000000000000"
            "41414141414141414141414141414141"
            "41434754414141414141414141414141"
        )

    def test_overlong_read_keeps_true_length(self):
        # A 20-base read in a 16-base record: bases truncate, the header
        # keeps the true length — the exact signature the Extractor
        # rejects (§4.2).
        rec = encode_pair_record(0, "C" * 20, "ACGT", 16)
        assert int.from_bytes(rec[16:20], "little") == 20
        assert rec[48:64] == b"C" * 16


class TestEdgeCaseAlignments:
    """Golden accelerator outcomes for degenerate sequence pairs."""

    # (pattern, text) -> (score, compact CIGAR) under (x,o,e) = (4,6,2).
    GOLDEN = [
        ("", "ACGT", 14, "4I"),
        ("ACGT", "", 14, "4D"),
        ("", "", 0, ""),
        ("ACGTACGTACGT", "ACGTACGTACGT", 0, "12M"),
        ("AAAA", "CCCC", 16, "4X"),
    ]

    def test_full_fidelity_outcomes(self):
        pairs = [
            SequencePair(pattern=a, text=b, pair_id=i)
            for i, (a, b, _, _) in enumerate(self.GOLDEN)
        ]
        out = Soc(WfasicConfig.paper_default(backtrace=True)).run_accelerated(pairs)
        for i, (a, b, score, compact) in enumerate(self.GOLDEN):
            assert out.success[i], (a, b)
            assert out.scores[i] == score, (a, b)
            assert out.cigars[i].compact() == compact, (a, b)

    def test_max_read_len_boundary_accepted(self):
        # Reads of exactly MAX_READ_LEN are in-contract and must align.
        mrl = 32
        pairs = [
            SequencePair(pattern="ACGT" * 8, text="ACGT" * 8, pair_id=0),
            SequencePair(pattern="ACGT" * 8, text="TGCA" * 8, pair_id=1),
        ]
        accel = WfasicAccelerator(WfasicConfig(max_read_len=mrl, backtrace=False))
        batch = accel.run_image(encode_input_image(pairs, mrl), mrl)
        by_id = {r.alignment_id: r for r in batch.runs}
        assert by_id[0].success and by_id[0].score == 0
        assert by_id[1].success
        assert by_id[1].score == swg_align("ACGT" * 8, "TGCA" * 8).score

    def test_one_past_max_read_len_rejected(self):
        # One base past the boundary: rejected pair-wise, not fatal.
        mrl = 32
        pairs = [
            SequencePair(pattern="A" * 33, text="ACGT", pair_id=0),
            SequencePair(pattern="ACGT", text="ACGT", pair_id=1),
        ]
        accel = WfasicAccelerator(WfasicConfig(max_read_len=mrl, backtrace=False))
        batch = accel.run_image(encode_input_image(pairs, mrl), mrl)
        by_id = {r.alignment_id: r for r in batch.runs}
        assert not by_id[0].success
        assert by_id[1].success and by_id[1].score == 0


class TestDatasetGoldenScores:
    """First-pair SWG scores of the named input sets must never drift."""

    GOLDEN = {
        "100-5%": (46, "ATATTCCCAGGGTTAG", 100),
        "100-10%": (48, "CTACGATGTCCGGAGT", 99),
        "1K-5%": (332, "CAAAGTAGGTGTGCCT", 1000),
        "1K-10%": (686, "ATAGGCGCGTAGCGCG", 984),
    }

    def test_scores_and_prefixes(self):
        for name, (score, prefix, text_len) in self.GOLDEN.items():
            pair = make_input_set(name, 1)[0]
            assert pair.pattern.startswith(prefix), name
            assert len(pair.text) == text_len, name
            assert swg_align(pair.pattern, pair.text).score == score, name


class TestPaperSetGoldenRuns:
    """Bit-exact simulator output for the first pair of every paper set.

    Pins the SHA-256 of the accelerator's backtrace result stream, the
    Aligner's cycles and work counters, and the CPU flow's cycles and
    WFA work counters, so a simulator speed-up cannot change a single
    byte or cycle of what the paper's figures are built from.
    """

    # set -> (stream sha256, run cycles, accelerator cycles,
    #         AlignerStats, CPU-flow cycles, CPU-flow WfaWorkCounters)
    GOLDEN = {
        "100-5%": (
            "846604903f4b0f067532dcaca69feb83c2f43bde46c709d4a8c27c24c7e997d7",
            260,
            335,
            AlignerStats(22, 1323, 403, 320, 41, 105, 139),
            44864,
            WfaWorkCounters(23, 21, 1449, 712, 320, 43, 1450, 0, 0),
        ),
        "100-10%": (
            "77bb0cf2675dd753e567627f1e47dc74426b6c813a2501aeb48b45bdcb970a6c",
            269,
            344,
            AlignerStats(23, 1452, 444, 279, 43, 110, 143),
            48216,
            WfaWorkCounters(24, 22, 1584, 717, 279, 45, 1585, 0, 0),
        ),
        "1K-5%": (
            "fbbad2e720a69fa8b2ae488ba90332b3f29a7daa081dee09eb2367d3b20d617c",
            4974,
            5555,
            AlignerStats(165, 80688, 26633, 11298, 327, 1840, 3118),
            2329186,
            WfaWorkCounters(166, 164, 81672, 37834, 11298, 329, 81673, 0, 0),
        ),
        "1K-10%": (
            "7fe6da60ee1c73570885c92da05829b6e61efef0a92b9c3e6474ccca6c5394e8",
            18665,
            21912,
            AlignerStats(342, 348843, 115640, 40032, 681, 6655, 11994),
            11348292,
            WfaWorkCounters(343, 341, 350889, 155629, 40032, 683, 350890, 0, 0),
        ),
        "10K-5%": (
            "7e0d47daa8fa63438c1f03a0c0c82e7303dbb69b79d35604b573155a9c21c45a",
            348809,
            421509,
            AlignerStats(1551, 7207500, 2400129, 822910, 3099, 118054, 230739),
            324184857,
            WfaWorkCounters(1552, 1550, 7216800, 3222199, 822910, 3101, 7216801, 0, 0),
        ),
        "10K-10%": (
            "4827d7d2fe39608ee91d78bdf146f377500f364f56cea8a212cf5213ced254a5",
            1230164,
            1495747,
            AlignerStats(2935, 25825068, 8602343, 2890820, 5867, 413796, 816352),
            1295410542,
            WfaWorkCounters(2936, 2934, 25842672, 11492619, 2890820, 5869, 25842673, 0, 0),
        ),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_first_pair(self, name):
        digest, run_cycles, accel_cycles, stats, cpu_cycles, work = self.GOLDEN[name]
        pairs = make_input_set(name, 1)
        soc = Soc(WfasicConfig.paper_default(backtrace=True))
        out = soc.run_accelerated(pairs, backtrace=True)
        (run,) = out.batch.runs
        assert hashlib.sha256(out.batch.output.as_stream()).hexdigest() == digest
        assert run.cycles == run_cycles
        assert out.accelerator_cycles == accel_cycles
        assert run.stats == stats
        cpu = soc.run_cpu(pairs)
        assert cpu.cycles == cpu_cycles
        assert cpu.work == work
