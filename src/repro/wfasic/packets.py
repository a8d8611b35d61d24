"""Byte-exact memory formats of the WFAsic co-design interface.

Everything the CPU and the accelerator exchange through main memory is
defined here, following §4.2 (input image), §4.3.3 (origin blocks) and
§4.4 (both result stream formats), so that the Extractor, the Collectors
and the CPU-side backtrace all speak the same bits and can be tested
against each other byte for byte.

Input image (per pair, §4.2) — all fields in 16-byte *sections*::

    section 0          alignment ID      (uint32 LE + 12 pad bytes)
    section 1          length of seq a   (uint32 LE + 12 pad bytes)
    section 2          length of seq b   (uint32 LE + 12 pad bytes)
    sections 3..       seq a bases, 1 byte/base, padded with dummy 'A'
                       bases to MAX_READ_LEN (MAX_READ_LEN/16 sections)
    sections ..        seq b bases, same layout

Collector NBT record (4 bytes, four records per 16-byte transaction)::

    uint16 LE          score (15 bits) | Success flag << 15
    uint16 LE          alignment ID

Collector BT transaction (16 bytes)::

    bytes 0..9         10 bytes of backtrace payload
    bytes 10..12       block counter (uint24 LE, per alignment)
    bytes 13..15       alignment ID (23 bits) | Last flag << 23  (uint24 LE)

Backtrace payload: per compute step, the 5-bit origin codes of one group
of ``parallel_sections`` cells are concatenated into 40-byte blocks
(64 x 5 = 320 bits, §4.3.3), bit 5*t upward holding cell t's code, LSB
first.  The final block of an alignment (Last flag set) instead carries
the score record: Success (1 byte), reached diagonal k (int16 LE), score
(uint16 LE), zero padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from .config import AXI_DATA_BYTES, BASES_PER_RAM_WORD

__all__ = [
    "SECTION_BYTES",
    "BT_BLOCK_BYTES",
    "BT_PAYLOAD_BYTES",
    "encode_base",
    "decode_base",
    "pack_bases",
    "unpack_bases",
    "round_up_read_len",
    "encode_pair_record",
    "encode_input_image",
    "pair_record_sections",
    "decode_pair_record",
    "NbtRecord",
    "pack_nbt_record",
    "unpack_nbt_record",
    "BtTransaction",
    "split_transactions",
    "bt_transaction_count",
    "frame_bt_blocks",
    "pack_bt_block",
    "unpack_bt_transaction",
    "pack_bt_final_block",
    "unpack_bt_final_payload",
    "pack_origin_blocks",
    "pack_origin_codes",
    "unpack_origin_codes",
]

#: One memory section (§4.2) = the AXI-Full data width.
SECTION_BYTES = AXI_DATA_BYTES

#: One backtrace block: 64 cells x 5 bits = 320 bits (§4.3.3).
BT_BLOCK_BYTES = 40

#: Payload bytes carried per 16-byte BT transaction (§4.4).
BT_PAYLOAD_BYTES = 10

_BASE_TO_CODE = {ord("A"): 0, ord("C"): 1, ord("G"): 2, ord("T"): 3}
_CODE_TO_BASE = np.frombuffer(b"ACGT", dtype=np.uint8)

#: Dummy base used to pad sequences to MAX_READ_LEN (§4.2: "the extra
#: bases are filled by dummy bases in the CPU").
DUMMY_BASE = ord("A")


# --------------------------------------------------------------------------
# Base packing (1 byte/base in memory <-> 2 bits/base in Input_Seq RAMs)
# --------------------------------------------------------------------------


def encode_base(char: str) -> int:
    """2-bit code of a DNA base; raises for 'N'/unknown characters."""
    try:
        return _BASE_TO_CODE[ord(char)]
    except KeyError:
        raise ValueError(f"unsupported base {char!r}") from None


def decode_base(code: int) -> str:
    """Base character of a 2-bit code."""
    if not 0 <= code <= 3:
        raise ValueError(f"invalid 2-bit base code {code}")
    return chr(_CODE_TO_BASE[code])


def pack_bases(seq_bytes: np.ndarray) -> np.ndarray:
    """ASCII base bytes -> uint32 RAM words, 16 bases x 2 bits per word.

    Base t of a word occupies bits ``2*t .. 2*t+1`` (LSB first), the
    order in which the hardware shifter consumes them.  The input length
    must be a multiple of 16 (callers pad with dummy bases first).
    """
    if len(seq_bytes) % BASES_PER_RAM_WORD:
        raise ValueError("sequence length must be a multiple of 16 bases")
    codes = np.zeros(len(seq_bytes), dtype=np.uint32)
    for char, code in _BASE_TO_CODE.items():
        codes[seq_bytes == char] = code
    unknown = ~np.isin(seq_bytes, list(_BASE_TO_CODE))
    if unknown.any():
        raise ValueError("sequence contains non-ACGT bases")
    groups = codes.reshape(-1, BASES_PER_RAM_WORD)
    shifts = np.arange(BASES_PER_RAM_WORD, dtype=np.uint32) * 2
    return (groups << shifts).sum(axis=1, dtype=np.uint64).astype(np.uint32)


def unpack_bases(words: np.ndarray, length: int) -> np.ndarray:
    """uint32 RAM words -> the first ``length`` ASCII base bytes."""
    shifts = np.arange(BASES_PER_RAM_WORD, dtype=np.uint32) * 2
    codes = (words[:, None] >> shifts) & 0x3
    flat = codes.reshape(-1)[:length]
    return _CODE_TO_BASE[flat]


# --------------------------------------------------------------------------
# Input image
# --------------------------------------------------------------------------


def round_up_read_len(length: int) -> int:
    """Round a batch's longest read up to a whole number of sections.

    §4.2: "The MAX_READ_LEN must be divisible by the data width of the
    AXI-Full (16 bytes).  For example, if the longest sequence in the
    input set has a length of 9010 bases, the MAX_READ_LEN is set to
    9024".
    """
    if length <= 0:
        return BASES_PER_RAM_WORD
    return -(-length // BASES_PER_RAM_WORD) * BASES_PER_RAM_WORD


def pair_record_sections(max_read_len: int) -> int:
    """Sections per pair record: 3 headers + 2 padded sequences."""
    if max_read_len % BASES_PER_RAM_WORD:
        raise ValueError("max_read_len must be a multiple of 16")
    return 3 + 2 * (max_read_len // SECTION_BYTES)


def _header_section(value: int) -> bytes:
    return int(value).to_bytes(4, "little") + b"\x00" * 12


def encode_pair_record(
    alignment_id: int, pattern: str, text: str, max_read_len: int
) -> bytes:
    """One pair's memory image (§4.2 layout).

    Sequences longer than ``max_read_len`` are *truncated* in the image
    but keep their true length in the header — exactly the broken-input
    situation the Extractor must detect and reject (§4.2).
    """
    if not 0 <= alignment_id < 2**32:
        raise ValueError("alignment ID must fit in 32 bits")
    if max_read_len % BASES_PER_RAM_WORD:
        raise ValueError("max_read_len must be a multiple of 16")

    def seq_sections(seq: str) -> bytes:
        raw = seq.encode("ascii")[:max_read_len]
        return raw + bytes([DUMMY_BASE]) * (max_read_len - len(raw))

    return (
        _header_section(alignment_id)
        + _header_section(len(pattern))
        + _header_section(len(text))
        + seq_sections(pattern)
        + seq_sections(text)
    )


def encode_input_image(pairs: Iterable[Any], max_read_len: int) -> bytes:
    """Concatenated pair records for a batch (CPU 'parses the input data
    and stores them in the main memory', Fig. 4 step 1)."""
    return b"".join(
        encode_pair_record(p.pair_id, p.pattern, p.text, max_read_len)
        for p in pairs
    )


@dataclass(frozen=True)
class DecodedPair:
    """What the Extractor recovers from one pair record."""

    alignment_id: int
    len_a: int
    len_b: int
    seq_a: bytes  # raw bytes as stored (padded to max_read_len)
    seq_b: bytes


def decode_pair_record(record: bytes, max_read_len: int) -> DecodedPair:
    """Parse one pair record (the Extractor's view of the input stream)."""
    expected = pair_record_sections(max_read_len) * SECTION_BYTES
    if len(record) != expected:
        raise ValueError(f"pair record must be {expected} bytes, got {len(record)}")
    aid = int.from_bytes(record[0:4], "little")
    len_a = int.from_bytes(record[16:20], "little")
    len_b = int.from_bytes(record[32:36], "little")
    off = 3 * SECTION_BYTES
    seq_a = record[off : off + max_read_len]
    seq_b = record[off + max_read_len : off + 2 * max_read_len]
    return DecodedPair(aid, len_a, len_b, seq_a, seq_b)


# --------------------------------------------------------------------------
# Collector NBT records (§4.4)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NbtRecord:
    """One no-backtrace result: Success, 15-bit score, 16-bit ID."""

    alignment_id: int
    score: int
    success: bool


def pack_nbt_record(record: NbtRecord) -> bytes:
    """4-byte NBT record; four are merged per memory transaction."""
    if not 0 <= record.score < 2**15:
        raise ValueError("NBT score field is 15 bits")
    if not 0 <= record.alignment_id < 2**16:
        raise ValueError("NBT alignment ID field is 16 bits")
    word = record.score | (int(record.success) << 15)
    return word.to_bytes(2, "little") + record.alignment_id.to_bytes(2, "little")


def unpack_nbt_record(data: bytes) -> NbtRecord:
    """Parse a 4-byte NBT record."""
    if len(data) != 4:
        raise ValueError("NBT record must be 4 bytes")
    word = int.from_bytes(data[0:2], "little")
    return NbtRecord(
        alignment_id=int.from_bytes(data[2:4], "little"),
        score=word & 0x7FFF,
        success=bool(word >> 15),
    )


# --------------------------------------------------------------------------
# Collector BT transactions (§4.4)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BtTransaction:
    """One 16-byte backtrace transaction as seen by the CPU."""

    payload: bytes  # 10 bytes
    counter: int  # 24-bit per-alignment block counter
    alignment_id: int  # 23 bits
    last: bool


def _pack_bt_txn(payload: bytes, counter: int, alignment_id: int, last: bool) -> bytes:
    if len(payload) != BT_PAYLOAD_BYTES:
        raise ValueError("BT payload must be 10 bytes")
    if not 0 <= counter < 2**24:
        raise ValueError("BT counter field is 24 bits")
    if not 0 <= alignment_id < 2**23:
        raise ValueError("BT alignment ID field is 23 bits")
    flags = alignment_id | (int(last) << 23)
    return payload + counter.to_bytes(3, "little") + flags.to_bytes(3, "little")


def split_transactions(stream: bytes) -> list[bytes]:
    """The 16-byte transactions of a result stream, in order."""
    return [stream[off : off + SECTION_BYTES] for off in range(0, len(stream), SECTION_BYTES)]


def bt_transaction_count(
    payload: bytes | bytearray, first_counter: int, alignment_id: int
) -> int:
    """Transactions :func:`frame_bt_blocks` makes of ``payload``.

    ``payload`` is one run's origin blocks back to back.  Raises
    ``ValueError`` when its length is not a multiple of 10 bytes or a
    field overflows.  An empty payload (a run that emitted no block)
    makes no transaction.
    """
    if len(payload) % BT_PAYLOAD_BYTES:
        raise ValueError(
            f"backtrace payload must be a multiple of {BT_PAYLOAD_BYTES} "
            f"bytes, got {len(payload)}"
        )
    count = len(payload) // BT_PAYLOAD_BYTES
    if not 0 <= first_counter <= 2**24 - count:
        raise ValueError("BT counter field is 24 bits")
    if not 0 <= alignment_id < 2**23:
        raise ValueError("BT alignment ID field is 23 bits")
    return count


def frame_bt_blocks(
    payload: bytes | bytearray,
    first_counter: int,
    alignment_id: int,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Frame a run's origin blocks as one ``(transactions, 16)`` uint8 array.

    ``payload`` (the blocks back to back) is cut into 10-byte pieces;
    row ``t`` holds piece ``t``, the counter ``first_counter + t``
    (uint24 LE) and the alignment ID with the Last flag clear (uint24
    LE) — every transaction built at once, from one read-only view of
    the payload.  The rows go to ``out`` when given (its shape must
    match), else to a new array.  Raises ``ValueError`` as
    :func:`bt_transaction_count` does.
    """
    count = bt_transaction_count(payload, first_counter, alignment_id)
    if out is None:
        out = np.empty((count, SECTION_BYTES), dtype=np.uint8)
    elif out.shape != (count, SECTION_BYTES):
        raise ValueError(f"out must have shape ({count}, {SECTION_BYTES})")
    pieces = np.frombuffer(payload, dtype=np.uint8).reshape(count, BT_PAYLOAD_BYTES)
    out[:, :BT_PAYLOAD_BYTES] = pieces
    counters = np.arange(first_counter, first_counter + count, dtype="<u4")
    out[:, 10:13] = counters.view(np.uint8).reshape(count, 4)[:, :3]
    out[:, 13:16] = np.frombuffer(alignment_id.to_bytes(3, "little"), dtype=np.uint8)
    return out


def pack_bt_block(
    block: bytes, first_counter: int, alignment_id: int
) -> list[bytes]:
    """Split a backtrace block into 16-byte transactions.

    §4.4: "we combine 10 bytes of the backtrace data with six bytes of
    information in one block of 16 bytes, and send each backtrace data in
    four memory transactions" — four for the shipped 64-PS / 40-byte
    blocks; smaller parallel-section counts frame into fewer.  Raises
    ``ValueError`` for an empty block.
    """
    if not block:
        raise ValueError("backtrace block must not be empty")
    return split_transactions(
        frame_bt_blocks(block, first_counter, alignment_id).tobytes()
    )


def pack_bt_final_block(
    success: bool, k_reached: int, score: int, counter: int, alignment_id: int
) -> bytes:
    """The terminating transaction: score record with the Last flag set.

    §4.4: 5 useful bytes — Success (1 byte), reached k (2 bytes), score
    (2 bytes) — sent "in one memory transaction".
    """
    if not 0 <= score < 2**16:
        raise ValueError("BT score field is 16 bits")
    payload = (
        bytes([int(success)])
        + int(k_reached).to_bytes(2, "little", signed=True)
        + score.to_bytes(2, "little")
        + b"\x00" * (BT_PAYLOAD_BYTES - 5)
    )
    return _pack_bt_txn(payload, counter, alignment_id, last=True)


def unpack_bt_transaction(data: bytes) -> BtTransaction:
    """Parse one 16-byte BT transaction."""
    if len(data) != SECTION_BYTES:
        raise ValueError("BT transaction must be 16 bytes")
    flags = int.from_bytes(data[13:16], "little")
    return BtTransaction(
        payload=data[0:10],
        counter=int.from_bytes(data[10:13], "little"),
        alignment_id=flags & 0x7FFFFF,
        last=bool(flags >> 23),
    )


def unpack_bt_final_payload(payload: bytes) -> tuple[bool, int, int]:
    """(success, k_reached, score) from a Last transaction's payload."""
    if len(payload) != BT_PAYLOAD_BYTES:
        raise ValueError("BT payload must be 10 bytes")
    return (
        bool(payload[0]),
        int.from_bytes(payload[1:3], "little", signed=True),
        int.from_bytes(payload[3:5], "little"),
    )


# --------------------------------------------------------------------------
# 5-bit origin-code packing (§4.3.3)
# --------------------------------------------------------------------------


#: Weight of each of 8 consecutive 5-bit codes in their 40-bit word.
_CODE_WEIGHTS = np.left_shift(np.uint64(1), 5 * np.arange(8, dtype=np.uint64))


def pack_origin_blocks(codes: np.ndarray, group_size: int = 64) -> np.ndarray:
    """Pack 5-bit origin codes into ``(groups, group_size * 5 // 8)`` bytes.

    Row ``g`` is the block of cells ``g * group_size ..``; the rows back
    to back are the frame column's backtrace payload.  The last group is
    zero-padded: code 0 is ``ORIGIN_M_NONE``, which the CPU backtrace
    can never dereference.  Bit layout: cell ``t`` of a block occupies
    bits ``5t .. 5t+4`` (LSB-first), matching the hardware's
    concatenation order.  So every 8 cells fill 5 whole bytes: one
    product with the weights ``2**(5t)`` makes each 8-cell run a 40-bit
    little-endian word, whose low 5 bytes are its part of the block.
    ``group_size`` must be a multiple of 8.
    """
    if group_size % 8:
        raise ValueError("origin blocks hold a multiple of 8 codes")
    if len(codes) and codes.max() >= 32:
        raise ValueError("origin codes must fit in 5 bits")
    groups = -(-len(codes) // group_size)
    padded = np.zeros(groups * group_size, dtype="<u8")
    padded[: len(codes)] = codes
    words = (padded.reshape(-1, 8) @ _CODE_WEIGHTS).astype("<u8", copy=False)
    low = words.view(np.uint8).reshape(-1, 8)[:, :5]
    return low.reshape(groups, group_size * 5 // 8)


def pack_origin_codes(codes: np.ndarray, group_size: int = 64) -> list[bytes]:
    """The blocks of :func:`pack_origin_blocks`, one ``bytes`` each."""
    return [row.tobytes() for row in pack_origin_blocks(codes, group_size)]


def unpack_origin_codes(block: bytes, group_size: int = 64) -> np.ndarray:
    """Inverse of :func:`pack_origin_codes` for one block."""
    bits = np.unpackbits(np.frombuffer(block, dtype=np.uint8), bitorder="little")
    bits = bits[: group_size * 5].reshape(group_size, 5)
    return (bits << np.arange(5)).sum(axis=1).astype(np.uint8)
