"""CPU-side backtrace (§4.5).

When backtrace is enabled the accelerator only *generates* origin data;
the walk happens on the CPU after the batch completes (Fig. 4 step 4).
This module implements both CPU methods the paper ships:

* **data separation** (multi-Aligner): the interleaved transaction stream
  is first demultiplexed by alignment ID — every payload byte is copied
  to a per-alignment region, a memory-bound step that dominates the
  backtrace-enabled runtime (Fig. 11's [Sep] bars);
* **no separation** (single-Aligner): each alignment's data is already
  consecutive; the CPU only scans for the Last-flag boundaries.

After reassembly the CPU walks the 5-bit origin codes from the final cell
``(s_final, k_final)`` down to score 0.  The stream carries *no offsets*,
so the walk yields only the difference operations (X/I/D); the positions
of the matches between them are reconstructed by traversing the two
sequences and greedily inserting matches — valid because WFA's extend()
is maximal, so every match run on an optimal path is exactly the greedy
run (§4.5: "the CPU traverses the two sequences and inserts all the
necessary matches between the differences").  Both passes live in
:mod:`repro.align.origin_walk`, which the batched software aligner
shares; this module supplies the code lookup from the stream.

Parsing is only possible because the per-step block layout is
deterministic (see ``repro.align.lattice``): given the penalties,
``k_max`` and the sequence lengths, the CPU recomputes every step's score
and clamped band, hence each cell's block and slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..align.cigar import Cigar
from ..align.lattice import ScoreLattice
from ..align.origin_walk import OriginWalkError, insert_matches, walk_origins
from .config import WfasicConfig
from .packets import (
    BT_PAYLOAD_BYTES,
    SECTION_BYTES,
    unpack_bt_final_payload,
    unpack_origin_codes,
)

__all__ = [
    "BacktraceStreamError",
    "CpuBacktraceWork",
    "CpuBacktraceResult",
    "parse_bt_stream",
    "StepIndex",
    "CpuBacktracer",
]


class BacktraceStreamError(RuntimeError):
    """The backtrace stream is inconsistent with the deterministic layout."""


@dataclass
class CpuBacktraceWork:
    """Abstract CPU work; ``repro.soc.cpu`` converts it to cycles."""

    #: Transactions read from memory (both methods scan the whole stream).
    transactions_scanned: int = 0
    #: Payload bytes copied during data separation (0 without separation).
    separation_bytes: int = 0
    #: Difference operations recovered by origin walks.
    walk_ops: int = 0
    #: Match characters inserted by the sequence traversal.
    match_chars: int = 0
    #: Steps indexed while rebuilding the deterministic layout.
    index_steps: int = 0

    def merge(self, other: "CpuBacktraceWork") -> None:
        self.transactions_scanned += other.transactions_scanned
        self.separation_bytes += other.separation_bytes
        self.walk_ops += other.walk_ops
        self.match_chars += other.match_chars
        self.index_steps += other.index_steps


@dataclass(frozen=True)
class CpuBacktraceResult:
    """One alignment's CPU-side outcome."""

    alignment_id: int
    success: bool
    score: int
    cigar: Cigar | None


@dataclass(frozen=True)
class _ParsedAlignment:
    alignment_id: int
    success: bool
    score: int
    k_reached: int
    #: Reassembled origin blocks: one row per data transaction, its 10
    #: payload bytes (a view into the stream when no reordering was needed).
    payload: np.ndarray


#: Rows the no-separation scan checks per pass; bounds its temporaries.
_SCAN_ROWS = 1 << 15

_LAST_FLAG = 1 << 31


def _counters_and_ids(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 24-bit counter and 23-bit alignment ID of each transaction from
    its bytes 8..15 read as two little-endian uint32 words."""
    counters = (words[:, 0] >> 16) | ((words[:, 1] & 0xFF) << 16)
    ids = (words[:, 1] >> 8) & 0x7FFFFF
    return counters, ids


def _last_rows(words: np.ndarray) -> list[int]:
    """Rows whose Last flag is set, found ``_SCAN_ROWS`` rows at a time."""
    rows: list[int] = []
    for lo in range(0, len(words), _SCAN_ROWS):
        hits = np.flatnonzero(words[lo : lo + _SCAN_ROWS, 1] >= _LAST_FLAG)
        rows.extend((hits + lo).tolist())
    return rows


def _check_run(words: np.ndarray) -> tuple[int, bool]:
    """Check one consecutive alignment (its Last row last) in place.

    Every row must carry the Last row's ID, and the Last row must hold
    the strictly largest counter.  Returns the ID and whether the
    counters already increase.  The fields are decoded ``_SCAN_ROWS``
    rows at a time, so no widened copy spans the whole alignment.
    """
    counters, ids = _counters_and_ids(words[-1:])
    aid, last_counter = int(ids[0]), int(counters[0])
    malformed = False
    ordered = True
    prev = -1
    n = len(words)
    for lo in range(0, n, _SCAN_ROWS):
        counters, ids = _counters_and_ids(words[lo : lo + _SCAN_ROWS])
        if not (ids == aid).all():
            raise BacktraceStreamError(
                "interleaved stream passed to the no-separation method"
            )
        # Counters before the Last row: all strictly below its counter.
        before = counters[: n - 1 - lo]
        if before.size and int(before.max()) >= last_counter:
            malformed = True
        if ordered:
            ordered = int(counters[0]) >= prev and bool(
                (counters[1:] >= counters[:-1]).all()
            )
            prev = int(counters[-1])
    if malformed:
        raise BacktraceStreamError(f"alignment {aid}: malformed Last-flag structure")
    return aid, ordered


def parse_bt_stream(
    stream: bytes | bytearray | memoryview,
    *,
    separate: bool,
    work: CpuBacktraceWork,
) -> list[_ParsedAlignment]:
    """Demultiplex a raw BT stream into per-alignment payloads.

    ``separate=True`` models the multi-Aligner method (§4.5): payloads are
    gathered by alignment ID regardless of interleaving, and every payload
    byte is charged to ``work.separation_bytes``.  ``separate=False``
    requires each alignment's transactions to be consecutive (single
    Aligner) and only scans for boundaries: each alignment's payload is
    then a slice of the stream, reordered only if its counters are not
    already increasing.
    """
    if len(stream) % SECTION_BYTES:
        raise BacktraceStreamError("stream length is not a multiple of 16 bytes")
    raw = np.frombuffer(stream, dtype=np.uint8).reshape(-1, SECTION_BYTES)
    n_txn = len(raw)
    work.transactions_scanned += n_txn
    if n_txn == 0:
        return []
    # Bytes 8..15: counter in bits 16..39, ID in bits 40..62, Last bit 63.
    words = raw[:, 8:].view("<u4")

    out: list[_ParsedAlignment] = []

    def finish(aid: int, payload: np.ndarray) -> None:
        success, k_reached, score = unpack_bt_final_payload(payload[-1].tobytes())
        out.append(
            _ParsedAlignment(
                alignment_id=aid,
                success=success,
                score=score,
                k_reached=k_reached,
                payload=payload[:-1],
            )
        )

    if separate:
        # Data separation: move every alignment's payload bytes together.
        counters, ids = _counters_and_ids(words)
        last = words[:, 1] >= _LAST_FLAG
        order = np.argsort(ids, kind="stable")
        boundaries = np.flatnonzero(np.diff(ids[order])) + 1
        for idxs in np.split(order, boundaries):
            aid = int(ids[idxs[0]])
            work.separation_bytes += len(idxs) * BT_PAYLOAD_BYTES
            sub_counters, sub_last = counters[idxs], last[idxs]
            if int(sub_last.sum()) != 1 or not sub_last[np.argmax(sub_counters)]:
                raise BacktraceStreamError(
                    f"alignment {aid}: malformed Last-flag structure"
                )
            payload = raw[idxs, :BT_PAYLOAD_BYTES]
            if not (sub_counters[1:] >= sub_counters[:-1]).all():
                payload = payload[np.argsort(sub_counters, kind="stable")]
            finish(aid, payload)
        # Preserve completion order (order of Last transactions).
        finish_order = {int(ids[i]): pos for pos, i in enumerate(np.flatnonzero(last))}
        out.sort(key=lambda p: finish_order.get(p.alignment_id, 0))
    else:
        # No separation: alignments are consecutive; split at Last flags.
        # Each alignment is checked on the stream's own words and its
        # payload is a slice of the stream unless its counters are out of
        # order.
        start = 0
        for end in _last_rows(words):
            rows = slice(start, end + 1)
            aid, ordered = _check_run(words[rows])
            payload = raw[rows, :BT_PAYLOAD_BYTES]
            if not ordered:
                counters, _ = _counters_and_ids(words[rows])
                payload = payload[np.argsort(counters, kind="stable")]
            finish(aid, payload)
            start = end + 1
        if start != n_txn:
            raise BacktraceStreamError("trailing transactions without a Last flag")
    return out


class StepIndex:
    """Deterministic (score, diagonal) -> (block, slot) map for one pair.

    Mirrors exactly the Aligner's emission loop: lattice scores in
    ascending order, theoretical M band clamped to the vector length and
    to the matrix extent, ``ceil(width / n_ps)`` blocks per step.
    """

    def __init__(
        self,
        config: WfasicConfig,
        n: int,
        m: int,
        s_final: int,
    ) -> None:
        self.config = config
        self.n_ps = config.parallel_sections
        lattice = ScoreLattice.of(config.penalties)
        lo_clamp = max(-config.k_max, -n)
        hi_clamp = min(config.k_max, m)
        g = config.penalties.score_granularity

        self._steps: dict[int, tuple[int, int, int]] = {}  # s -> (lo, hi, base)
        base = 0
        for s in range(g, s_final + 1, g):
            band = lattice.m_band(s)
            if band is None:
                continue
            band = band.clamped(lo_clamp, hi_clamp)
            if band is None:
                continue
            self._steps[s] = (band.lo, band.hi, base)
            base += -(-(band.hi - band.lo + 1) // self.n_ps)
        self.total_blocks = base

    @property
    def num_steps(self) -> int:
        return len(self._steps)

    def locate(self, s: int, k: int) -> tuple[int, int]:
        """Block index and slot of cell ``(s, k)``."""
        try:
            lo, hi, base = self._steps[s]
        except KeyError:
            raise BacktraceStreamError(f"no wavefront step at score {s}") from None
        if not lo <= k <= hi:
            raise BacktraceStreamError(
                f"diagonal {k} outside band {lo}..{hi} at score {s}"
            )
        cell = k - lo
        return base + cell // self.n_ps, cell % self.n_ps


class CpuBacktracer:
    """The full CPU backtrace flow over a batch result stream."""

    def __init__(self, config: WfasicConfig) -> None:
        self.config = config

    def process(
        self,
        stream: bytes | bytearray | memoryview,
        sequences: dict[int, tuple[str, str]],
        *,
        separate: bool,
    ) -> tuple[list[CpuBacktraceResult], CpuBacktraceWork]:
        """Backtrace every alignment in a BT result stream.

        ``sequences`` maps alignment IDs to the (pattern, text) pairs the
        CPU already holds from building the input image.
        """
        work = CpuBacktraceWork()
        parsed = parse_bt_stream(stream, separate=separate, work=work)
        results: list[CpuBacktraceResult] = []
        for entry in parsed:
            if not entry.success:
                results.append(
                    CpuBacktraceResult(
                        alignment_id=entry.alignment_id,
                        success=False,
                        score=0,
                        cigar=None,
                    )
                )
                continue
            try:
                a, b = sequences[entry.alignment_id]
            except KeyError:
                raise BacktraceStreamError(
                    f"result for unknown alignment ID {entry.alignment_id}"
                ) from None
            cigar = self._backtrace_one(entry, a, b, work)
            results.append(
                CpuBacktraceResult(
                    alignment_id=entry.alignment_id,
                    success=True,
                    score=entry.score,
                    cigar=cigar,
                )
            )
        return results, work

    # -- internals ------------------------------------------------------------

    def _backtrace_one(
        self, entry: _ParsedAlignment, a: str, b: str, work: CpuBacktraceWork
    ) -> Cigar:
        n, m = len(a), len(b)
        index = StepIndex(self.config, n, m, entry.score)
        work.index_steps += index.num_steps
        expected_blocks = index.total_blocks
        block_bytes = self.config.bt_block_bytes
        if entry.payload.size % block_bytes:
            raise BacktraceStreamError(
                f"alignment {entry.alignment_id}: payload is not whole "
                f"{block_bytes}-byte blocks"
            )
        have_blocks = entry.payload.size // block_bytes
        if have_blocks != expected_blocks:
            raise BacktraceStreamError(
                f"alignment {entry.alignment_id}: {have_blocks} blocks in "
                f"stream but the layout implies {expected_blocks}"
            )
        if entry.k_reached != m - n:
            raise BacktraceStreamError(
                f"alignment {entry.alignment_id}: final diagonal "
                f"{entry.k_reached} != m - n = {m - n}"
            )

        ops_rev = self._walk(entry, index, work)
        cigar = self._insert_matches(ops_rev[::-1], a, b, work)
        return cigar

    def _code_at(
        self, payload: np.ndarray, cache: dict[int, np.ndarray], block: int, slot: int
    ) -> int:
        codes = cache.get(block)
        if codes is None:
            # A backtrace configuration's blocks are whole payload rows.
            rows = self.config.bt_block_bytes // BT_PAYLOAD_BYTES
            raw = payload[block * rows : (block + 1) * rows].tobytes()
            codes = unpack_origin_codes(raw, self.config.parallel_sections)
            cache[block] = codes
        return int(codes[slot])

    def _walk(
        self, entry: _ParsedAlignment, index: StepIndex, work: CpuBacktraceWork
    ) -> list[str]:
        """Origin-chain walk from the final cell down to score 0."""
        cache: dict[int, np.ndarray] = {}

        def code_at(s: int, k: int) -> int:
            return self._code_at(entry.payload, cache, *index.locate(s, k))

        try:
            ops = walk_origins(
                code_at, entry.score, entry.k_reached, self.config.penalties
            )
        except OriginWalkError as exc:
            raise BacktraceStreamError(
                f"alignment {entry.alignment_id}: {exc}"
            ) from None
        work.walk_ops += len(ops)
        return ops

    @staticmethod
    def _insert_matches(
        ops: list[str], a: str, b: str, work: CpuBacktraceWork
    ) -> Cigar:
        """Greedy match insertion between the recovered differences
        (:func:`repro.align.origin_walk.insert_matches`)."""
        try:
            cigar = insert_matches(ops, a, b)
        except OriginWalkError as exc:
            raise BacktraceStreamError(str(exc)) from None
        work.match_chars += cigar.ops.count("M")
        return cigar
