"""The Extractor module (§4.2).

The Extractor monitors the Aligners, and when one is idle it pulls one
pair record from the Input FIFO (16 bytes per clock), decodes it, packs
the bases to 2 bits each, and streams them into the idle Aligner's
Input_Seq RAMs.  It also performs the two §4.2 validity checks:

* reads longer than the configured ``MAX_READ_LEN`` and
* reads containing 'N' (unknown) bases

are flagged unsupported; the Aligner then skips the pair and reports it
with the Success flag cleared (the alignment ID still identifies it).

Dummy padding bases beyond the declared length are ignored (they are
detectable from the length fields).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workloads.alphabet import UNSUPPORTED_TOO_LONG, read_support_reason
from .config import AXI_DATA_BYTES, BASES_PER_RAM_WORD
from .packets import (
    SECTION_BYTES,
    decode_pair_record,
    pack_bases,
    pair_record_sections,
)

__all__ = ["ExtractedJob", "Extractor"]


@dataclass(frozen=True)
class ExtractedJob:
    """One pair as delivered to an Aligner.

    ``packed_a``/``packed_b`` are the 2-bit-packed Input_Seq RAM words;
    ``seq_a``/``seq_b`` the decoded sequences (empty for unsupported
    jobs).  ``extract_cycles`` is the Extractor's occupancy for this pair
    (one 16-byte section per clock, §4.2).
    """

    alignment_id: int
    supported: bool
    unsupported_reason: str | None
    seq_a: str
    seq_b: str
    packed_a: np.ndarray
    packed_b: np.ndarray
    len_a: int
    len_b: int
    extract_cycles: int


class Extractor:
    """Decode pair records into Aligner jobs.

    Parameters
    ----------
    max_read_len:
        The batch ``MAX_READ_LEN`` configured by the CPU over AXI-Lite
        (must not exceed the hardware's own limit; the driver enforces
        that).
    """

    def __init__(self, max_read_len: int) -> None:
        if max_read_len % BASES_PER_RAM_WORD:
            raise ValueError("max_read_len must be a multiple of 16")
        self.max_read_len = max_read_len
        self.record_bytes = pair_record_sections(max_read_len) * SECTION_BYTES
        self.jobs_extracted = 0
        self.jobs_rejected = 0

    # -- stream framing -----------------------------------------------------

    def record_size(self) -> int:
        """Bytes per pair record for this batch configuration."""
        return self.record_bytes

    def split_stream(self, image: bytes) -> list[bytes]:
        """Cut a raw input image into per-pair records."""
        if len(image) % self.record_bytes:
            raise ValueError(
                f"input image size {len(image)} is not a multiple of the "
                f"record size {self.record_bytes}"
            )
        return [
            image[off : off + self.record_bytes]
            for off in range(0, len(image), self.record_bytes)
        ]

    # -- extraction -----------------------------------------------------------

    def extract(self, record: bytes) -> ExtractedJob:
        """Decode one pair record into an :class:`ExtractedJob`."""
        decoded = decode_pair_record(record, self.max_read_len)
        cycles = len(record) // AXI_DATA_BYTES  # one section per clock

        reason = self._validate(decoded.len_a, decoded.seq_a) or self._validate(
            decoded.len_b, decoded.seq_b
        )
        if reason is not None:
            self.jobs_rejected += 1
            empty = np.zeros(0, dtype=np.uint32)
            return ExtractedJob(
                alignment_id=decoded.alignment_id,
                supported=False,
                unsupported_reason=reason,
                seq_a="",
                seq_b="",
                packed_a=empty,
                packed_b=empty,
                len_a=decoded.len_a,
                len_b=decoded.len_b,
                extract_cycles=cycles,
            )

        seq_a = decoded.seq_a[: decoded.len_a].decode("ascii")
        seq_b = decoded.seq_b[: decoded.len_b].decode("ascii")
        # Pack the padded buffers, normalising the dummy region: the
        # Extractor "ignores the dummy bases when it reads them" (§4.2),
        # so whatever the CPU left beyond the declared length packs as a
        # harmless base and is never read by the Aligner.
        packed_a = pack_bases(self._with_clean_padding(decoded.seq_a, decoded.len_a))
        packed_b = pack_bases(self._with_clean_padding(decoded.seq_b, decoded.len_b))
        self.jobs_extracted += 1
        return ExtractedJob(
            alignment_id=decoded.alignment_id,
            supported=True,
            unsupported_reason=None,
            seq_a=seq_a,
            seq_b=seq_b,
            packed_a=packed_a,
            packed_b=packed_b,
            len_a=decoded.len_a,
            len_b=decoded.len_b,
            extract_cycles=cycles,
        )

    def extract_image(self, image: bytes) -> list[ExtractedJob]:
        """Decode a whole batch image in stream order."""
        return [self.extract(rec) for rec in self.split_stream(image)]

    @staticmethod
    def _with_clean_padding(stored: bytes, length: int) -> np.ndarray:
        arr = np.frombuffer(stored, dtype=np.uint8).copy()
        arr[length:] = ord("A")
        return arr

    # -- validation ------------------------------------------------------------

    def _validate(self, length: int, stored: bytes) -> str | None:
        # The header's length, not the stored bytes: a read longer than
        # MAX_READ_LEN is truncated in the image.
        if length > self.max_read_len:
            return UNSUPPORTED_TOO_LONG
        return read_support_reason(stored[:length].decode("latin-1"))
