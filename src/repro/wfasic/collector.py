"""The Collector modules (§4.4): result framing toward main memory.

Two collectors exist; only one is active per run:

* **Collector NBT** (backtrace disabled): each alignment yields one
  4-byte record (Success, 15-bit score, 16-bit ID); four records are
  merged per 16-byte memory transaction so the design "is less limited
  by the accelerator-memory bandwidth".
* **Collector BT** (backtrace enabled): each 40-byte origin block from an
  Aligner becomes four 16-byte transactions (10 payload bytes + counter +
  ID/Last info each); the stream of an alignment terminates with one
  score-record transaction whose Last flag is set.

With several Aligners, the BT streams of concurrently-running alignments
interleave in completion order — exactly the situation that forces the
CPU's data-separation step (§4.5) and motivates the paper's final
single-Aligner configuration.  :meth:`CollectorBT.interleave` models that
at block granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .aligner import AlignerRun
from .packets import (
    BT_PAYLOAD_BYTES,
    SECTION_BYTES,
    NbtRecord,
    frame_bt_blocks,
    pack_bt_final_block,
    pack_nbt_record,
    split_transactions,
)

__all__ = ["CollectorNBT", "CollectorBT", "CollectorOutput"]


@dataclass(frozen=True)
class CollectorOutput:
    """What a collector hands to the output FIFO / DMA: 16-byte
    transactions, back to back."""

    stream: bytes

    @property
    def transactions(self) -> list[bytes]:
        return split_transactions(self.stream)

    @property
    def num_transactions(self) -> int:
        return len(self.stream) // SECTION_BYTES

    @property
    def total_bytes(self) -> int:
        return len(self.stream)

    def as_stream(self) -> bytes:
        return self.stream


class CollectorNBT:
    """Backtrace-disabled collector: 4 score records per transaction."""

    RECORDS_PER_TRANSACTION = 4

    def collect(self, runs: list[AlignerRun]) -> CollectorOutput:
        """Frame the runs' score records, preserving completion order.

        A trailing partial transaction is zero-padded; the CPU side
        detects padding by the batch's known alignment count.
        """
        records = b"".join(
            pack_nbt_record(
                NbtRecord(
                    alignment_id=run.alignment_id,
                    score=run.score if run.success else 0,
                    success=run.success,
                )
            )
            for run in runs
        )
        padded = -(-len(records) // SECTION_BYTES) * SECTION_BYTES
        return CollectorOutput(stream=records.ljust(padded, b"\x00"))


class CollectorBT:
    """Backtrace-enabled collector: origin blocks -> 16-byte transactions.

    With the shipped 64 parallel sections each 40-byte block frames into
    four transactions; other PS counts frame proportionally.
    """

    def frame_run(self, run: AlignerRun) -> list[bytes]:
        """All transactions of one alignment, in stream order."""
        return split_transactions(self._run_stream(run))

    def collect(self, runs: list[AlignerRun]) -> CollectorOutput:
        """Single-Aligner stream: each alignment's data is consecutive."""
        return CollectorOutput(stream=b"".join(map(self._run_stream, runs)))

    def interleave(self, runs: list[AlignerRun], num_aligners: int) -> CollectorOutput:
        """Multi-Aligner stream: concurrent alignments interleave.

        Models the §4.5 situation: "the backtrace data of each alignment
        is not consecutively written in the memory... distributed among
        the memory based on how the Controller BT schedules them".  The
        schedule here is round-robin at block granularity among the
        ``num_aligners`` alignments in flight, which matches the hardware
        collector polling its Aligners; any interleaving forces the same
        CPU-side separation work.
        """
        if num_aligners < 1:
            raise ValueError("num_aligners must be >= 1")
        if num_aligners == 1:
            return self.collect(runs)
        pending = [iter(self._chunks(run)) for run in runs]
        active: list = []
        out: list[bytes] = []
        queue = list(range(len(runs)))
        # Fill the initial in-flight window.
        while queue and len(active) < num_aligners:
            active.append(pending[queue.pop(0)])
        while active:
            for it in list(active):
                chunk = next(it, None)
                if chunk is None:
                    active.remove(it)
                    if queue:
                        active.append(pending[queue.pop(0)])
                else:
                    out.extend(chunk)
        return CollectorOutput(stream=b"".join(out))

    def _run_stream(self, run: AlignerRun) -> bytes:
        """One alignment's transactions: its origin blocks framed as one
        array (counters from 0), then the score record with Last set."""
        if run.bt_blocks is None:
            raise ValueError("CollectorBT needs an Aligner run with backtrace data")
        txns = frame_bt_blocks(run.bt_blocks, 0, run.alignment_id)
        return txns.tobytes() + pack_bt_final_block(
            run.success, run.k_reached, run.score, len(txns), run.alignment_id
        )

    def _chunks(self, run: AlignerRun) -> Iterator[list]:
        """Per-alignment transaction stream, one block's worth at a time."""
        txns = self.frame_run(run)
        if run.bt_blocks:
            per_block = len(run.bt_blocks[0]) // BT_PAYLOAD_BYTES
        else:
            per_block = 1
        for off in range(0, len(txns), per_block):
            yield txns[off : off + per_block]
