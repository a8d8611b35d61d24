"""Unit tests for the Extractor module (§4.2)."""

import pytest

from repro.wfasic import Extractor
from repro.wfasic.packets import (
    encode_input_image,
    encode_pair_record,
    pair_record_sections,
    unpack_bases,
)
from repro.workloads import PairGenerator, SequencePair
from repro.workloads.alphabet import UNSUPPORTED_BAD_BASE, UNSUPPORTED_TOO_LONG


class TestFraming:
    def test_record_size(self):
        ex = Extractor(48)
        assert ex.record_size() == pair_record_sections(48) * 16

    def test_split_stream(self):
        pairs = PairGenerator(length=40, error_rate=0.1, seed=1).batch(3)
        image = encode_input_image(pairs, 48)
        ex = Extractor(48)
        assert len(ex.split_stream(image)) == 3

    def test_misaligned_stream_rejected(self):
        ex = Extractor(48)
        with pytest.raises(ValueError):
            ex.split_stream(b"\x00" * 17)

    def test_unaligned_max_read_len_rejected(self):
        with pytest.raises(ValueError):
            Extractor(50)


class TestExtraction:
    def test_basic_job(self):
        rec = encode_pair_record(5, "ACGT" * 4, "ACGT" * 5, 96)
        job = Extractor(96).extract(rec)
        assert job.supported
        assert job.alignment_id == 5
        assert job.seq_a == "ACGT" * 4
        assert job.seq_b == "ACGT" * 5
        assert job.len_a == 16 and job.len_b == 20

    def test_packed_words_decode_back(self):
        seq = "TGCA" * 8
        rec = encode_pair_record(1, seq, seq, 48)
        job = Extractor(48).extract(rec)
        # The RAM image decodes to the padded sequence.
        decoded = bytes(unpack_bases(job.packed_a, 32)).decode()
        assert decoded == seq

    def test_extract_cycles_one_section_per_clock(self):
        rec = encode_pair_record(1, "A" * 16, "A" * 16, 48)
        job = Extractor(48).extract(rec)
        assert job.extract_cycles == pair_record_sections(48)

    def test_empty_sequences(self):
        rec = encode_pair_record(2, "", "", 16)
        job = Extractor(16).extract(rec)
        assert job.supported
        assert job.seq_a == "" and job.seq_b == ""

    def test_extract_image_order(self):
        pairs = PairGenerator(length=30, error_rate=0.2, seed=3).batch(4)
        jobs = Extractor(48).extract_image(encode_input_image(pairs, 48))
        assert [j.alignment_id for j in jobs] == [p.pair_id for p in pairs]
        assert all(j.supported for j in jobs)


class TestUnsupportedDetection:
    def test_too_long_rejected(self):
        # True length 100 exceeds the batch MAX_READ_LEN of 48.
        rec = encode_pair_record(7, "C" * 100, "G" * 10, 48)
        job = Extractor(48).extract(rec)
        assert not job.supported
        assert job.unsupported_reason == UNSUPPORTED_TOO_LONG
        assert job.alignment_id == 7  # ID still reported for the CPU

    def test_n_base_rejected(self):
        pair = SequencePair(pattern="ACGNACGT", text="ACGTACGT")
        rec = encode_pair_record(8, pair.pattern, pair.text, 16)
        job = Extractor(16).extract(rec)
        assert not job.supported
        assert job.unsupported_reason == UNSUPPORTED_BAD_BASE

    def test_n_in_text_rejected(self):
        rec = encode_pair_record(9, "ACGT", "ACNT", 16)
        job = Extractor(16).extract(rec)
        assert not job.supported

    def test_dummy_padding_not_validated(self):
        # Garbage beyond the declared length must be ignored: the dummy
        # region is only reachable through the padded image, so craft one.
        rec = bytearray(encode_pair_record(10, "ACGT", "ACGT", 16))
        rec[3 * 16 + 10] = ord("N")  # poison a dummy byte of seq a
        job = Extractor(16).extract(bytearray(rec))
        assert job.supported

    def test_rejection_counters(self):
        ex = Extractor(16)
        ex.extract(encode_pair_record(0, "ACGT", "ACGT", 16))
        ex.extract(encode_pair_record(1, "ACGN", "ACGT", 16))
        assert ex.jobs_extracted == 1
        assert ex.jobs_rejected == 1
