"""Byte-exactness tests for the co-design memory formats."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.wfasic.packets import (
    BT_PAYLOAD_BYTES,
    SECTION_BYTES,
    NbtRecord,
    decode_pair_record,
    encode_base,
    decode_base,
    encode_input_image,
    encode_pair_record,
    pack_bases,
    pack_bt_block,
    pack_bt_final_block,
    pack_nbt_record,
    pack_origin_blocks,
    pack_origin_codes,
    pair_record_sections,
    round_up_read_len,
    unpack_bases,
    unpack_bt_final_payload,
    unpack_bt_transaction,
    unpack_nbt_record,
    unpack_origin_codes,
)
from repro.workloads import PairGenerator


class TestBaseCodes:
    def test_roundtrip(self):
        for ch in "ACGT":
            assert decode_base(encode_base(ch)) == ch

    def test_n_rejected(self):
        with pytest.raises(ValueError):
            encode_base("N")

    def test_bad_code(self):
        with pytest.raises(ValueError):
            decode_base(4)


class TestPackBases:
    def test_roundtrip(self):
        seq = np.frombuffer(b"ACGTACGTACGTACGT" * 3, dtype=np.uint8)
        words = pack_bases(seq)
        assert len(words) == 3
        assert bytes(unpack_bases(words, len(seq))) == bytes(seq)

    def test_word_packing_density(self):
        # 16 bases -> exactly one 4-byte word; 'A' = 0 packs to 0.
        words = pack_bases(np.frombuffer(b"A" * 16, dtype=np.uint8))
        assert words.tolist() == [0]
        words = pack_bases(np.frombuffer(b"T" * 16, dtype=np.uint8))
        assert words.tolist() == [0xFFFFFFFF]

    def test_first_base_in_low_bits(self):
        words = pack_bases(np.frombuffer(b"C" + b"A" * 15, dtype=np.uint8))
        assert words[0] == 1

    def test_unaligned_length_rejected(self):
        with pytest.raises(ValueError):
            pack_bases(np.frombuffer(b"ACGT", dtype=np.uint8))

    def test_non_acgt_rejected(self):
        with pytest.raises(ValueError):
            pack_bases(np.frombuffer(b"ACGN" * 4, dtype=np.uint8))


class TestInputImage:
    def test_round_up_read_len(self):
        # §4.2 example: longest read 9010 -> MAX_READ_LEN 9024.
        assert round_up_read_len(9010) == 9024
        assert round_up_read_len(16) == 16
        assert round_up_read_len(1) == 16
        assert round_up_read_len(0) == 16

    def test_record_sections(self):
        # 3 header sections + 2 * (len/16) base sections.
        assert pair_record_sections(112) == 3 + 2 * 7

    def test_pair_record_roundtrip(self):
        rec = encode_pair_record(42, "ACGT" * 5, "ACGT" * 6, 48)
        assert len(rec) == pair_record_sections(48) * SECTION_BYTES
        dec = decode_pair_record(rec, 48)
        assert dec.alignment_id == 42
        assert dec.len_a == 20 and dec.len_b == 24
        assert dec.seq_a[:20] == b"ACGT" * 5
        assert dec.seq_b[:24] == b"ACGT" * 6
        # Dummy padding is 'A'.
        assert dec.seq_a[20:] == b"A" * 28

    def test_overlong_sequence_truncated_but_length_kept(self):
        rec = encode_pair_record(1, "C" * 100, "G" * 10, 48)
        dec = decode_pair_record(rec, 48)
        assert dec.len_a == 100  # true length preserved for detection
        assert len(dec.seq_a) == 48

    def test_image_concatenation(self):
        pairs = PairGenerator(length=32, error_rate=0.1, seed=1).batch(3)
        image = encode_input_image(pairs, 48)
        assert len(image) == 3 * pair_record_sections(48) * SECTION_BYTES
        dec = decode_pair_record(image[: len(image) // 3], 48)
        assert dec.alignment_id == pairs[0].pair_id

    def test_bad_record_size(self):
        with pytest.raises(ValueError):
            decode_pair_record(b"\x00" * 17, 48)

    def test_bad_alignment_id(self):
        with pytest.raises(ValueError):
            encode_pair_record(2**32, "A", "A", 16)


class TestNbtRecords:
    def test_roundtrip(self):
        rec = NbtRecord(alignment_id=513, score=8000, success=True)
        packed = pack_nbt_record(rec)
        assert len(packed) == 4
        assert unpack_nbt_record(packed) == rec

    def test_success_bit_is_msb(self):
        ok = pack_nbt_record(NbtRecord(1, 100, True))
        bad = pack_nbt_record(NbtRecord(1, 100, False))
        assert ok[1] & 0x80 and not bad[1] & 0x80

    def test_score_field_limit(self):
        with pytest.raises(ValueError):
            pack_nbt_record(NbtRecord(1, 2**15, True))

    def test_id_field_limit(self):
        with pytest.raises(ValueError):
            pack_nbt_record(NbtRecord(2**16, 0, True))


class TestBtTransactions:
    def test_block_split(self):
        block = bytes(range(40))
        txns = pack_bt_block(block, first_counter=8, alignment_id=77)
        assert len(txns) == 4
        for i, txn in enumerate(txns):
            parsed = unpack_bt_transaction(txn)
            assert parsed.payload == block[i * 10 : (i + 1) * 10]
            assert parsed.counter == 8 + i
            assert parsed.alignment_id == 77
            assert not parsed.last

    def test_small_block_split(self):
        # 32 parallel sections -> 20-byte blocks -> 2 transactions.
        txns = pack_bt_block(bytes(20), first_counter=0, alignment_id=1)
        assert len(txns) == 2

    def test_bad_block_length(self):
        with pytest.raises(ValueError):
            pack_bt_block(bytes(13), 0, 1)
        with pytest.raises(ValueError):
            pack_bt_block(b"", 0, 1)

    def test_final_block(self):
        txn = pack_bt_final_block(
            success=True, k_reached=-42, score=1234, counter=99, alignment_id=5
        )
        parsed = unpack_bt_transaction(txn)
        assert parsed.last
        assert parsed.counter == 99
        success, k, score = unpack_bt_final_payload(parsed.payload)
        assert success and k == -42 and score == 1234

    def test_final_block_failure_flag(self):
        txn = pack_bt_final_block(False, 0, 0, 0, 3)
        success, _, _ = unpack_bt_final_payload(unpack_bt_transaction(txn).payload)
        assert not success

    def test_id_23_bit_limit(self):
        with pytest.raises(ValueError):
            pack_bt_block(bytes(40), 0, 2**23)

    def test_counter_24_bit_limit(self):
        with pytest.raises(ValueError):
            pack_bt_block(bytes(40), 2**24, 1)


class TestOriginPacking:
    def test_single_block_roundtrip(self):
        codes = np.arange(64, dtype=np.uint8) % 32
        blocks = pack_origin_codes(codes, 64)
        assert len(blocks) == 1 and len(blocks[0]) == 40
        assert (unpack_origin_codes(blocks[0], 64) == codes).all()

    def test_partial_group_zero_padded(self):
        codes = np.full(10, 31, dtype=np.uint8)
        blocks = pack_origin_codes(codes, 64)
        back = unpack_origin_codes(blocks[0], 64)
        assert (back[:10] == 31).all()
        assert (back[10:] == 0).all()

    def test_multiple_blocks(self):
        codes = np.arange(130, dtype=np.uint8) % 32
        blocks = pack_origin_codes(codes, 64)
        assert len(blocks) == 3

    def test_group_size_32(self):
        codes = np.arange(32, dtype=np.uint8) % 32
        blocks = pack_origin_codes(codes, 32)
        assert len(blocks[0]) == 20
        assert (unpack_origin_codes(blocks[0], 32) == codes).all()

    def test_code_range_checked(self):
        with pytest.raises(ValueError):
            pack_origin_codes(np.array([32], dtype=np.uint8), 64)

    @pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 128, 5841])
    def test_matches_per_group_reference(self, width):
        codes = np.random.default_rng(width).integers(0, 32, width).astype(np.uint8)
        expected = []
        for start in range(0, width, 64):
            # Cell t of a group occupies bits 5t..5t+4, LSB first.
            value = 0
            for t, code in enumerate(codes[start : start + 64].tolist()):
                value |= code << (5 * t)
            expected.append(value.to_bytes(40, "little"))
        assert pack_origin_codes(codes, 64) == expected

    @pytest.mark.parametrize("group", [16, 32, 64])
    def test_blocks_match_bit_by_bit_reference(self, group):
        rng = np.random.default_rng(group)
        for width in (0, 1, group - 1, group, group + 1, 7 * group + 3):
            codes = rng.integers(0, 32, width).astype(np.uint8)
            groups = -(-width // group)
            bits = np.zeros(groups * group * 5, dtype=np.uint8)
            for t, code in enumerate(codes.tolist()):
                for b in range(5):
                    bits[5 * t + b] = (code >> b) & 1
            expected = np.packbits(bits, bitorder="little").reshape(
                groups, group * 5 // 8
            )
            got = pack_origin_blocks(codes, group)
            assert got.shape == expected.shape, (group, width)
            assert (got == expected).all(), (group, width)

    @pytest.mark.parametrize("group", [16, 32, 64])
    def test_blocks_reject_codes_past_5_bits(self, group):
        codes = np.zeros(group + 1, dtype=np.uint8)
        codes[-1] = 32
        with pytest.raises(ValueError):
            pack_origin_blocks(codes, group)

    @given(
        codes=st.lists(st.integers(min_value=0, max_value=31), min_size=0, max_size=200)
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, codes):
        arr = np.array(codes, dtype=np.uint8)
        blocks = pack_origin_codes(arr, 64)
        back = np.concatenate(
            [unpack_origin_codes(b, 64) for b in blocks]
        ) if blocks else np.zeros(0, dtype=np.uint8)
        assert (back[: len(arr)] == arr).all()
        assert (back[len(arr) :] == 0).all()
