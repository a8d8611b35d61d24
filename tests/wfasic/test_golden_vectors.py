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
from repro.align.penalties import DEFAULT_PENALTIES, AffinePenalties
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


class TestEdgeConfigGoldenRuns:
    """Bit-exact simulator output away from the paper's configuration.

    The paper-default pins run ``k_max = 3998`` at 64 PS, where no band
    ever reaches the edge rows of the wavefront vectors and every origin
    block is 64 cells.  These pin the first two pairs of the 100 bp and
    1 kbp 10 % sets with backtrace on at ``k_max`` 16, 64 and 512 (Eq. 6
    stops the runs whose score passes ``2 k_max + 4``) and 16, 32 and 64
    parallel sections (short packing groups).  Under (x, o, e) = (3, 2, 1)
    the bands outgrow ``±k_max`` before Eq. 6 stops them, so the vector
    edges clamp every late step.
    """

    # (set, k_max, parallel sections) -> (stream sha256, run cycles,
    #     accelerator cycles, AlignerStats per run)
    GOLDEN = {
        ("100-10%", 16, 16): (
            "7ba74167a4386320523d3690db9cf055dad884264865eb89b70ce72f5947f581",
            [275, 271],
            696,
            [
                AlignerStats(17, 768, 228, 168, 31, 104, 155),
                AlignerStats(17, 768, 224, 131, 31, 104, 151),
            ],
        ),
        ("100-10%", 16, 32): (
            "f93d4e7f4a9a8356a80f087040afce57822d024319a8136d7ed4353a8ba0f491",
            [203, 199],
            552,
            [
                AlignerStats(17, 768, 228, 168, 31, 80, 107),
                AlignerStats(17, 768, 224, 131, 31, 80, 103),
            ],
        ),
        ("100-10%", 16, 64): (
            "bcbf6f1662b8125bd17aeb55ef6cec2727297209b34adf95783cf2ee2eb69e48",
            [203, 199],
            552,
            [
                AlignerStats(17, 768, 228, 168, 31, 80, 107),
                AlignerStats(17, 768, 224, 131, 31, 80, 103),
            ],
        ),
        ("100-10%", 64, 16): (
            "45b94878c29fc859c10ca9529c4591283e8e820ba5ad48dea166c796cdd22346",
            [449, 996],
            1595,
            [
                AlignerStats(23, 1452, 444, 279, 43, 170, 263),
                AlignerStats(37, 3888, 1222, 569, 71, 372, 608),
            ],
        ),
        ("100-10%", 64, 32): (
            "7b405cd895f0daefe7a1ae993794adb11e5d95678ce84b5c8fdaa5955fe6fa02",
            [323, 636],
            1109,
            [
                AlignerStats(23, 1452, 444, 279, 43, 128, 179),
                AlignerStats(37, 3888, 1222, 569, 71, 252, 368),
            ],
        ),
        ("100-10%", 64, 64): (
            "4f372c8d5f293fdf1a4c687f8165b8ce552948fef4c72ed96767036d227c3482",
            [269, 456],
            875,
            [
                AlignerStats(23, 1452, 444, 279, 43, 110, 143),
                AlignerStats(37, 3888, 1222, 569, 71, 192, 248),
            ],
        ),
        ("100-10%", 512, 16): (
            "45b94878c29fc859c10ca9529c4591283e8e820ba5ad48dea166c796cdd22346",
            [449, 996],
            1595,
            [
                AlignerStats(23, 1452, 444, 279, 43, 170, 263),
                AlignerStats(37, 3888, 1222, 569, 71, 372, 608),
            ],
        ),
        ("100-10%", 512, 32): (
            "7b405cd895f0daefe7a1ae993794adb11e5d95678ce84b5c8fdaa5955fe6fa02",
            [323, 636],
            1109,
            [
                AlignerStats(23, 1452, 444, 279, 43, 128, 179),
                AlignerStats(37, 3888, 1222, 569, 71, 252, 368),
            ],
        ),
        ("100-10%", 512, 64): (
            "4f372c8d5f293fdf1a4c687f8165b8ce552948fef4c72ed96767036d227c3482",
            [269, 456],
            875,
            [
                AlignerStats(23, 1452, 444, 279, 43, 110, 143),
                AlignerStats(37, 3888, 1222, 569, 71, 192, 248),
            ],
        ),
        ("1K-10%", 16, 16): (
            "ec30be9c27cc4d08dd8b93dff0a1f0d9f519e59dcf594260cdeeab25d751418a",
            [270, 270],
            1306,
            [
                AlignerStats(17, 768, 223, 128, 31, 104, 150),
                AlignerStats(17, 768, 223, 165, 31, 104, 150),
            ],
        ),
        ("1K-10%", 16, 32): (
            "c44d5c663b37bedbcf9060ec1693af8aaad8b05b47abbec23cc93a21c4167a5f",
            [198, 198],
            1162,
            [
                AlignerStats(17, 768, 223, 128, 31, 80, 102),
                AlignerStats(17, 768, 223, 165, 31, 80, 102),
            ],
        ),
        ("1K-10%", 16, 64): (
            "f2aa91ac00c68ab5b42ae7b2a672b342e51e62451a4b1d341524b13c82713d6c",
            [198, 198],
            1162,
            [
                AlignerStats(17, 768, 223, 128, 31, 80, 102),
                AlignerStats(17, 768, 223, 165, 31, 80, 102),
            ],
        ),
        ("1K-10%", 64, 16): (
            "9581f45d4de469a5ee58a8847b533872ed5c26b89a5eb574688473c16f6034d6",
            [2752, 2753],
            6271,
            [
                AlignerStats(65, 12288, 3977, 1564, 127, 992, 1744),
                AlignerStats(65, 12288, 3978, 1957, 127, 992, 1745),
            ],
        ),
        ("1K-10%", 64, 32): (
            "3576aa9b3eb53a0a71f0706a523680cbe80ccc919e4e128c17c97f418be5aa2c",
            [1600, 1601],
            3967,
            [
                AlignerStats(65, 12288, 3977, 1564, 127, 608, 976),
                AlignerStats(65, 12288, 3978, 1957, 127, 608, 977),
            ],
        ),
        ("1K-10%", 64, 64): (
            "e2fab5ef9280027918bae5981ddf2f88367c4ec10d6449076626dcfc9e5466e9",
            [1024, 1025],
            2815,
            [
                AlignerStats(65, 12288, 3977, 1564, 127, 416, 592),
                AlignerStats(65, 12288, 3978, 1957, 127, 416, 593),
            ],
        ),
        ("1K-10%", 512, 16): (
            "37eb87d27347d4670d450c41852bf3199868d9c44f36d6087f6aa0c993f02321",
            [67697, 55789],
            124252,
            [
                AlignerStats(342, 348843, 115640, 40032, 681, 22999, 44682),
                AlignerStats(310, 286443, 94904, 33769, 617, 18987, 36786),
            ],
        ),
        ("1K-10%", 512, 32): (
            "555c1c44f03e4f14db3599eed74f40aea3e90c8e8a5eb2b7d9cf9bad2bfba5ad",
            [35000, 28942],
            64708,
            [
                AlignerStats(342, 348843, 115640, 40032, 681, 12100, 22884),
                AlignerStats(310, 286443, 94904, 33769, 617, 10038, 18888),
            ],
        ),
        ("1K-10%", 512, 64): (
            "c0a2ee0c4dc380b6d285d2f6f0a3ac3e3efa9ca661331857fddf11c97f12f111",
            [18665, 15532],
            40062,
            [
                AlignerStats(342, 348843, 115640, 40032, 681, 6655, 11994),
                AlignerStats(310, 286443, 94904, 33769, 617, 5568, 9948),
            ],
        ),
    }

    # The same at (x, o, e) = (3, 2, 1): bands clamped at ±k_max.
    GOLDEN_CLAMPED = {
        ("100-10%", 16, 16): (
            "92c003cd86ff6812822b6b7041096d2c7c7ba8c020b4a717b4f18be9561ae0d3",
            [380, 726],
            1256,
            [
                AlignerStats(20, 1161, 354, 251, 33, 143, 221),
                AlignerStats(32, 2349, 743, 480, 33, 275, 435),
            ],
        ),
        ("100-10%", 16, 64): (
            "a0c861b4b6edbb172ad4433faf296820f39cefe687bab265b048196396c81405",
            [236, 366],
            752,
            [
                AlignerStats(20, 1161, 354, 251, 33, 95, 125),
                AlignerStats(32, 2349, 743, 480, 33, 155, 195),
            ],
        ),
        ("100-10%", 64, 16): (
            "11aafd81898b3d7d3b994432064d0b2a5a4cbade6ec259e16445bce3cf459d0e",
            [380, 798],
            1328,
            [
                AlignerStats(20, 1197, 362, 252, 39, 143, 221),
                AlignerStats(32, 3069, 955, 569, 63, 299, 483),
            ],
        ),
        ("100-10%", 64, 64): (
            "0417651f41150e5def6650e98d539c9fe9b4c1341a789b66606ff4e6a1655500",
            [236, 366],
            752,
            [
                AlignerStats(20, 1197, 362, 252, 39, 95, 125),
                AlignerStats(32, 3069, 955, 569, 63, 155, 195),
            ],
        ),
        ("1K-10%", 16, 16): (
            "9543a192c597b7f71ea3178e52ba34cb684a72b33c202fb67bf7d5da8436a07f",
            [822, 815],
            2403,
            [
                AlignerStats(35, 2646, 856, 576, 33, 308, 498),
                AlignerStats(35, 2646, 849, 690, 33, 308, 491),
            ],
        ),
        ("1K-10%", 16, 64): (
            "331045cfb084439259efdb91eaa712acbf97875526c43463abe2dac3b771a2c0",
            [408, 401],
            1575,
            [
                AlignerStats(35, 2646, 856, 576, 33, 170, 222),
                AlignerStats(35, 2646, 849, 690, 33, 170, 215),
            ],
        ),
        ("1K-10%", 64, 16): (
            "40bcd39a5c63ecaefd9589fbe714accaf20753e977966fae9934b0e90389635f",
            [8313, 8318],
            17397,
            [
                AlignerStats(131, 38214, 12625, 5026, 129, 2930, 5367),
                AlignerStats(131, 38214, 12630, 5538, 129, 2930, 5372),
            ],
        ),
        ("1K-10%", 64, 64): (
            "8ca819f48476e8173791e5d85fd69eecd8cb1bdce4bd0c7203dcc67c523d6dec",
            [2967, 2972],
            6705,
            [
                AlignerStats(131, 38214, 12625, 5026, 129, 1148, 1803),
                AlignerStats(131, 38214, 12630, 5538, 129, 1148, 1808),
            ],
        ),
    }

    @staticmethod
    def check(pins, name, k_max, ps, penalties):
        digest, run_cycles, accel_cycles, stats = pins[name, k_max, ps]
        config = WfasicConfig(
            parallel_sections=ps, k_max=k_max, backtrace=True, penalties=penalties
        )
        out = Soc(config).run_accelerated(make_input_set(name, 2), backtrace=True)
        runs = sorted(out.batch.runs, key=lambda r: r.alignment_id)
        assert hashlib.sha256(out.batch.output.as_stream()).hexdigest() == digest
        assert [r.cycles for r in runs] == run_cycles
        assert out.accelerator_cycles == accel_cycles
        assert [r.stats for r in runs] == stats

    @pytest.mark.parametrize("name, k_max, ps", list(GOLDEN))
    def test_default_penalties(self, name, k_max, ps):
        self.check(self.GOLDEN, name, k_max, ps, DEFAULT_PENALTIES)

    @pytest.mark.parametrize("name, k_max, ps", list(GOLDEN_CLAMPED))
    def test_bands_clamped_at_k_max(self, name, k_max, ps):
        self.check(self.GOLDEN_CLAMPED, name, k_max, ps, AffinePenalties(3, 2, 1))
