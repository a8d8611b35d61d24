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

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from .aligner import AlignerRun
from .packets import (
    BT_BLOCK_BYTES,
    BT_PAYLOAD_BYTES,
    SECTION_BYTES,
    NbtRecord,
    bt_transaction_count,
    frame_bt_blocks,
    pack_bt_final_block,
    pack_nbt_record,
    split_transactions,
)

__all__ = ["CollectorNBT", "CollectorBT", "CollectorOutput"]


@dataclass(frozen=True)
class CollectorOutput:
    """What a collector hands to the output FIFO / DMA: 16-byte
    transactions, back to back (Collector BT fills a ``bytearray``)."""

    stream: bytes | bytearray

    @property
    def transactions(self) -> list[bytes]:
        return split_transactions(bytes(self.stream))

    @property
    def num_transactions(self) -> int:
        return len(self.stream) // SECTION_BYTES

    @property
    def total_bytes(self) -> int:
        return len(self.stream)

    def as_stream(self) -> bytes | bytearray:
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
    four transactions; other PS counts frame proportionally
    (``block_bytes`` is the configuration's
    :attr:`~repro.wfasic.WfasicConfig.bt_block_bytes`).  Every run's
    payload is framed straight into one buffer that becomes the stream.
    """

    def __init__(self, block_bytes: int = BT_BLOCK_BYTES) -> None:
        self.block_bytes = block_bytes

    def frame_run(self, run: AlignerRun) -> list[bytes]:
        """All transactions of one alignment, in stream order."""
        stream, _ = self._frame([run])
        return split_transactions(bytes(stream))

    def collect(self, runs: list[AlignerRun]) -> CollectorOutput:
        """Single-Aligner stream: each alignment's data is consecutive."""
        stream, _ = self._frame(runs)
        return CollectorOutput(stream=stream)

    def interleave(self, runs: list[AlignerRun], num_aligners: int) -> CollectorOutput:
        """Multi-Aligner stream: concurrent alignments interleave.

        Models the §4.5 situation: "the backtrace data of each alignment
        is not consecutively written in the memory... distributed among
        the memory based on how the Controller BT schedules them".  The
        schedule here is round-robin at block granularity among the
        ``num_aligners`` alignments in flight, which matches the hardware
        collector polling its Aligners; any interleaving forces the same
        CPU-side separation work.  The consecutive stream's rows are
        gathered in that order into a second buffer.
        """
        if num_aligners < 1:
            raise ValueError("num_aligners must be >= 1")
        if num_aligners == 1:
            return self.collect(runs)
        framed, starts = self._frame(runs)
        order = self._round_robin(
            starts, self.block_bytes // BT_PAYLOAD_BYTES, num_aligners
        )
        stream = bytearray(len(framed))
        np.take(_rows(framed), order, axis=0, out=_rows(stream))
        return CollectorOutput(stream=stream)

    def _frame(self, runs: list[AlignerRun]) -> tuple[bytearray, list[int]]:
        """Every run's transactions, back to back in one buffer: its
        origin blocks (counters from 0), then the score record with Last
        set.  Also returns the run boundaries: run ``i`` fills rows
        ``starts[i]:starts[i + 1]``."""
        sizes = []
        for run in runs:
            if run.bt_payload is None:
                raise ValueError("CollectorBT needs an Aligner run with backtrace data")
            sizes.append(bt_transaction_count(run.bt_payload, 0, run.alignment_id) + 1)
        starts = list(accumulate(sizes, initial=0))
        stream = bytearray(starts[-1] * SECTION_BYTES)
        rows = _rows(stream)
        for run, lo, hi in zip(runs, starts, starts[1:]):
            assert run.bt_payload is not None
            frame_bt_blocks(run.bt_payload, 0, run.alignment_id, out=rows[lo : hi - 1])
            rows[hi - 1] = np.frombuffer(
                pack_bt_final_block(
                    run.success, run.k_reached, run.score, hi - 1 - lo, run.alignment_id
                ),
                dtype=np.uint8,
            )
        return stream, starts

    @staticmethod
    def _round_robin(
        starts: list[int], per_block: int, num_aligners: int
    ) -> np.ndarray:
        """Row order of the interleaved stream over the consecutive one.

        Each alignment in flight sends one block's worth of transactions
        (``per_block``) per turn; a finished alignment's place goes to
        the next one.
        """

        def chunks(lo: int, hi: int) -> Iterator[tuple[int, int]]:
            for row in range(lo, hi, per_block):
                yield row, min(per_block, hi - row)

        queue = deque(chunks(lo, hi) for lo, hi in zip(starts, starts[1:]))
        active = [queue.popleft() for _ in range(min(num_aligners, len(queue)))]
        firsts: list[int] = []
        lengths: list[int] = []
        while active:
            for it in list(active):
                chunk = next(it, None)
                if chunk is None:
                    active.remove(it)
                    if queue:
                        active.append(queue.popleft())
                else:
                    firsts.append(chunk[0])
                    lengths.append(chunk[1])
        # Row i of chunk c comes from firsts[c] + (i - the chunk's offset).
        counts = np.array(lengths, dtype=np.int64)
        shift = np.array(firsts, dtype=np.int64) - (np.cumsum(counts) - counts)
        return np.arange(starts[-1]) + np.repeat(shift, counts)


def _rows(stream: bytearray) -> np.ndarray:
    """A writable ``(transactions, 16)`` view of a stream buffer."""
    return np.frombuffer(stream, dtype=np.uint8).reshape(-1, SECTION_BYTES)
