"""Vectorised WFA kernels shared by the software aligner and the WFAsic model.

Two kernels mirror the two hardware sub-modules of §4.3:

* :func:`compute_kernel` — Eq. 3 across a whole frame column at once,
  optionally emitting the 5-bit per-cell origin codes that the Compute
  sub-module concatenates into backtrace blocks.
* :func:`extend_kernel` — greedy match extension across all live cells
  of the frame column, comparing 8-byte words.  From each cell's match
  length it derives, in closed form, the number of 16-base blocks the
  Extend sub-module compares (one per cycle until a mismatch or a
  sequence end), so cycle models charge the same work the hardware
  would do.

Both kernels use the paper's conventions: ``offset = j``, ``k = j - i``,
:data:`NULL_OFFSET` for unreachable cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wfa import NULL_OFFSET, PROG_NULL

__all__ = [
    "ORIGIN_M_NONE",
    "ORIGIN_M_SUB",
    "ORIGIN_M_INS",
    "ORIGIN_M_DEL",
    "ORIGIN_I_EXT_BIT",
    "ORIGIN_D_EXT_BIT",
    "BAND_ABSENT",
    "BandPruneOutput",
    "ComputeOutput",
    "ExtendOutput",
    "BatchedComputeOutput",
    "BatchedExtendOutput",
    "band_prune_batched",
    "batch_words",
    "compute_kernel",
    "extend_kernel",
    "compute_kernel_batched",
    "extend_kernel_batched",
    "window_columns",
    "pad_sequence",
    "sequence_words",
]

#: Per-pair ``lo`` placeholder meaning "this pair has no wavefront at this
#: score".  Large enough that any window index derived from it lands far
#: outside every real band (so gathers return NULL), small enough that
#: int64 arithmetic on it can never overflow.
BAND_ABSENT = 2**31

# --- 5-bit origin encoding (§4.3.3: 3 bits M + 1 bit I + 1 bit D) ---------

#: M-origin field (bits 2..0): where the M cell's value came from.
ORIGIN_M_NONE = 0  # cell is NULL
ORIGIN_M_SUB = 1  # substitution: M[s-x, k] + 1
ORIGIN_M_INS = 2  # insertion:    I[s, k]
ORIGIN_M_DEL = 3  # deletion:     D[s, k]

#: I-origin bit (bit 3): 0 = open (M[s-o-e, k-1]), 1 = extend (I[s-e, k-1]).
ORIGIN_I_EXT_BIT = 1 << 3
#: D-origin bit (bit 4): 0 = open (M[s-o-e, k+1]), 1 = extend (D[s-e, k+1]).
ORIGIN_D_EXT_BIT = 1 << 4


@dataclass(frozen=True)
class ComputeOutput:
    """Frame-column result of one compute() step."""

    m: np.ndarray  # int64, NULL_OFFSET where unreachable
    i: np.ndarray
    d: np.ndarray
    origins: np.ndarray | None  # uint8 5-bit codes, or None

    @property
    def any_live(self) -> bool:
        return bool((self.m >= 0).any())


@dataclass(frozen=True)
class ExtendOutput:
    """Frame-column result of one extend() step."""

    offsets: np.ndarray  # post-extension M offsets
    blocks: np.ndarray  # 16-base comparator operations per cell
    matches: int  # total matched characters
    comparisons: int  # total character comparisons (scalar-equivalent)


def _origin_codes(
    mwf: np.ndarray,
    ins: np.ndarray,
    dele: np.ndarray,
    gap: np.ndarray,
    i_e_km1: np.ndarray,
    m_oe_km1: np.ndarray,
    d_e_kp1: np.ndarray,
    m_oe_kp1: np.ndarray,
) -> np.ndarray:
    """Each cell's 5-bit origin code; leaves ``max(mwf, gap)`` in ``mwf``.

    ``mwf``/``ins``/``dele`` are the room-masked candidates and ``gap`` is
    ``max(ins, dele)``.  The tie order is that of
    :func:`repro.align.wfa.backtrace_wavefronts`: at M substitution beats
    insertion beats deletion, at I and D extend beats open.  With
    ``lt = mwf < gap`` (a gap wins) and ``live = M >= 0``, the M field is
    ``lt * (1 + (ins < dele)) + live``: NONE 0, SUB 1, INS 2, DEL 3 (a
    dead cell has no live candidate, so ``lt`` is false there too).
    Every pass after the comparisons is an in-place uint8 add or
    multiply.
    """
    codes = np.less(ins, dele).view(np.uint8)
    codes += np.uint8(1)
    flag = np.less(mwf, gap)
    np.multiply(codes, flag, out=codes)
    np.maximum(mwf, gap, out=mwf)
    np.greater_equal(mwf, 0, out=flag)
    np.add(codes, flag, out=codes)
    ext = np.greater_equal(d_e_kp1, m_oe_kp1).view(np.uint8)
    ext += ext
    np.greater_equal(i_e_km1, m_oe_km1, out=flag)
    np.add(ext, flag, out=ext)
    ext *= np.uint8(ORIGIN_I_EXT_BIT)
    codes += ext
    return codes


def compute_kernel(
    m_x: np.ndarray,
    m_oe_km1: np.ndarray,
    i_e_km1: np.ndarray,
    m_oe_kp1: np.ndarray,
    d_e_kp1: np.ndarray,
    ks: np.ndarray,
    n: int,
    m: int,
    *,
    emit_origins: bool = False,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> ComputeOutput:
    """Eq. 3 for one frame column.

    All inputs are aligned to the output diagonals ``ks``: ``m_x[t]`` is
    ``M[s-x, ks[t]]``, ``m_oe_km1[t]`` is ``M[s-o-e, ks[t]-1]``, and so on
    (callers gather the shifted windows; the hardware does the same with
    its banked RAM addressing, Fig. 6).

    Dead cells — offset beyond the text end ``m``, row ``i = offset - k``
    beyond the pattern end ``n``, or no live source — are nulled *before*
    the max so they can never shadow a live candidate.  The new M, I and
    D columns go to ``out`` (three int64 arrays of ``len(ks)`` cells that
    overlap no input, e.g. slices of frame columns), or by default to the
    rows of one new stacked array, computed as
    :func:`compute_kernel_batched` computes a batch row.
    """
    if out is None:
        mwf, ins, dele = np.empty((3, len(ks)), dtype=np.int64)
    else:
        mwf, ins, dele = out
    np.add(m_x, 1, out=mwf)
    np.maximum(m_oe_km1, i_e_km1, out=ins)
    ins += 1
    np.maximum(m_oe_kp1, d_e_kp1, out=dele)

    # A candidate lives iff ``0 <= offset < room``: within the text
    # (``offset <= m``) and the pattern (``offset - k <= n``).  Viewed as
    # unsigned, one comparison checks both ends.
    room = ks + (n + 1)
    np.minimum(room, m + 1, out=room)
    np.maximum(room, 0, out=room)
    room_u = room.view(np.uint64)
    for cand in (mwf, ins, dele):
        np.putmask(cand, cand.view(np.uint64) >= room_u, NULL_OFFSET)

    gap = np.maximum(ins, dele)
    origins: np.ndarray | None = None
    if emit_origins:
        origins = _origin_codes(
            mwf, ins, dele, gap, i_e_km1, m_oe_km1, d_e_kp1, m_oe_kp1
        )
    else:
        np.maximum(mwf, gap, out=mwf)
    return ComputeOutput(m=mwf, i=ins, d=dele, origins=origins)


#: Bytes (bases) compared per word operation of :func:`extend_kernel`.
_WORD_BYTES = 8
#: Words each still-matching cell compares per pass after its first in
#: :func:`extend_kernel_batched`.
_TAIL_WORDS = 16
_TAIL_STRIDES = _WORD_BYTES * np.arange(_TAIL_WORDS, dtype=np.int64)


def _diff_byte(diff: np.ndarray) -> np.ndarray:
    """Index of the lowest differing byte of each XOR word, -128 for none.

    ``diff & -diff`` isolates the lowest set bit ``b``; as a float64 it is
    an exact power of two, whose biased exponent field holds ``1023 + b``.
    """
    bits = (diff & -diff).astype(np.float64).view(np.int64)
    return ((bits >> 52) - 1023) >> 3


def _diff_byte_in_rows(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First differing byte of each row of XOR words, and whether it has one.

    ``diff`` is ``(cells, words)``: little-endian words laid end to end,
    so its bytes are in sequence order.  Once rows are several words
    long, one ``argmax`` over their bytes beats a search per word.
    """
    rows, words = diff.shape
    little = diff.astype("<u8", copy=False).view(np.uint8)
    nonzero = little.reshape(rows, _WORD_BYTES * words) != 0
    first = nonzero.argmax(axis=1)
    return first, nonzero[np.arange(rows), first]


#: Sentinel bytes after every padded sequence: one 16-base comparator
#: block, which also covers the 8-byte word read at the sequence end.
SENTINEL_PAD = 16


def pad_sequence(seq: str, *, sentinel: int) -> np.ndarray:
    """Sequence bytes followed by :data:`SENTINEL_PAD` sentinel bytes.

    The sentinel guarantees that comparisons past the sequence end fail,
    so the vectorised comparator needs no per-row bounds checks (use
    *different* sentinels for the two sequences).
    """
    raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    return np.concatenate([raw, np.full(SENTINEL_PAD, sentinel, dtype=np.uint8)])


def sequence_words(seq: str, *, sentinel: int) -> np.ndarray:
    """One little-endian 8-byte word per byte offset of a padded sequence.

    ``words[p]`` holds bytes ``p..p+7`` of :func:`pad_sequence`, byte
    ``p`` lowest, for every ``p`` up to ``len(seq) + 8``: the comparison
    operand :func:`extend_kernel` gathers for a cell at row or column
    ``p``.  The array is contiguous, which gathers several times faster
    than an unaligned strided view of the padded bytes.
    """
    padded = pad_sequence(seq, sentinel=sentinel)
    count = len(padded) - _WORD_BYTES + 1
    return np.ndarray((count,), dtype="<u8", buffer=padded, strides=(1,)).copy()


def batch_words(padded: np.ndarray) -> np.ndarray:
    """The 2-D counterpart of :func:`sequence_words`, one row per sequence.

    ``padded`` is a C-contiguous :func:`repro.align.packing.pack_batch`
    matrix; ``words[r, p]`` holds bytes ``p..p+7`` of its row ``r``.  The
    result is one contiguous copy of a strided view, the comparison
    operand of :func:`extend_kernel_batched`.
    """
    rows, width = padded.shape
    return np.ndarray(
        (rows, width - _WORD_BYTES + 1),
        dtype="<u8",
        buffer=padded,
        strides=(width, 1),
    ).copy()


@dataclass(frozen=True)
class BatchedComputeOutput:
    """One compute() step for a whole batch of pairs."""

    #: int64 ``(3, pairs, width)``: the M, I and D wavefronts stacked,
    #: NULL_OFFSET where unreachable.
    mid: np.ndarray
    #: bool ``(3, pairs)``: the row holds at least one live M / I / D cell.
    live: np.ndarray
    #: uint8 ``(pairs, width)`` 5-bit origin codes (as
    #: :func:`compute_kernel` emits them), or ``None``.
    origins: np.ndarray | None = None

    @property
    def m(self) -> np.ndarray:
        return self.mid[0]

    @property
    def i(self) -> np.ndarray:
        return self.mid[1]

    @property
    def d(self) -> np.ndarray:
        return self.mid[2]

    @property
    def live_m(self) -> np.ndarray:
        return self.live[0]


@dataclass(frozen=True)
class BatchedExtendOutput:
    """One extend() step for a whole batch of pairs."""

    offsets: np.ndarray  # int64 (pairs, width), post-extension M offsets
    matches: np.ndarray  # int64 (pairs,): matched characters per pair
    comparisons: np.ndarray  # int64 (pairs,): scalar-equivalent compares


def window_columns(
    lo_src: np.ndarray, w_src: int, lo_new: np.ndarray, width: int, shift: int
) -> np.ndarray:
    """Columns of per-pair shifted windows in a NULL-padded wavefront.

    The source is ``(pairs, w_src + 1)``: row ``p`` covers diagonals from
    ``lo_src[p]``, every cell past the pair's band is NULL_OFFSET (a row
    without a wavefront is all NULL), and column ``w_src`` is a NULL pad.
    Entry ``[p, t]`` is the column of diagonal ``lo_new[p] + t + shift``
    in row ``p``, or ``w_src`` when that diagonal falls outside
    ``0..w_src - 1``.  So ``np.take_along_axis(source, cols, axis=1)`` is
    the ``(pairs, width)`` window, NULL outside each band — the batched
    analog of :meth:`repro.align.wfa.Wavefront.window`, and of the
    hardware's banked per-section RAM addressing (Fig. 6).  One index
    serves every matrix stored in that layout.  Viewed as unsigned, a
    negative column is huge, so one ``minimum`` clamps both ends.
    """
    cols = (lo_new + (shift - lo_src))[:, None] + np.arange(width, dtype=np.int64)
    unsigned = cols.view(np.uint64)
    np.minimum(unsigned, w_src, out=unsigned)
    return cols


def compute_kernel_batched(
    m_x: np.ndarray,
    m_oe_km1: np.ndarray,
    i_e_km1: np.ndarray,
    m_oe_kp1: np.ndarray,
    d_e_kp1: np.ndarray,
    ks: np.ndarray,
    ns: np.ndarray,
    ms: np.ndarray,
    valid: np.ndarray | None = None,
    *,
    emit_origins: bool = False,
) -> BatchedComputeOutput:
    """Eq. 3 for one score step of a whole batch at once.

    The 2D counterpart of :func:`compute_kernel`: every input is
    ``(pairs, width)`` with row ``p`` aligned to that pair's band (use
    :func:`window_columns` to cut the shifted source windows),
    ``ks[p, t]`` is the diagonal of cell ``(p, t)``, and ``ns``/``ms``
    are per-pair sequence lengths broadcastable against the cells (pass
    column vectors).  ``valid`` optionally masks padding columns.  A
    caller whose windows are NULL outside each pair's source bands needs
    no mask: every cell past a pair's new band is then unreachable.

    ``emit_origins`` also returns each cell's 5-bit origin code, with
    the tie order of :func:`repro.align.wfa.backtrace_wavefronts`: at M
    substitution beats insertion beats deletion, at I and D extend beats
    open.
    """
    pairs, width = ks.shape
    mid = np.empty((3, pairs, width), dtype=np.int64)
    mwf, ins, dele = mid
    np.add(m_x, 1, out=mwf)
    np.maximum(m_oe_km1, i_e_km1, out=ins)
    ins += 1
    np.maximum(m_oe_kp1, d_e_kp1, out=dele)

    # A candidate lives iff ``0 <= offset < room``: within the text
    # (``offset <= m``), the pattern (``offset - k <= n``) and the band.
    # Viewed as unsigned, one comparison checks both ends, for all three
    # candidates at once.
    room = np.maximum(np.minimum(ms, ks + ns) + 1, 0)
    if valid is not None:
        room = np.where(valid, room, 0)
    np.putmask(mid, mid.view(np.uint64) >= room.view(np.uint64), NULL_OFFSET)

    gap = np.maximum(ins, dele)
    origins: np.ndarray | None = None
    if emit_origins:
        origins = _origin_codes(
            mwf, ins, dele, gap, i_e_km1, m_oe_km1, d_e_kp1, m_oe_kp1
        )
    else:
        np.maximum(mwf, gap, out=mwf)
    live = mid.max(axis=2, initial=NULL_OFFSET) >= 0
    return BatchedComputeOutput(mid=mid, live=live, origins=origins)


@dataclass(frozen=True)
class BandPruneOutput:
    """Result of one adaptive band-pruning step for a whole batch."""

    lo: np.ndarray  # int64 (pairs,): new band start per pair
    hi: np.ndarray  # int64 (pairs,): new band end per pair
    pruned: np.ndarray  # int64 (pairs,): live cells discarded per pair


def band_prune_batched(
    mid: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    band_width: int,
    keep: np.ndarray,
) -> BandPruneOutput | None:
    """Trim every pair's wavefronts to ``band_width`` diagonals at once.

    ``mid`` stacks the M/I/D wavefronts as ``(3, pairs, width + 1)``:
    row ``p`` covers diagonals ``lo[p]..hi[p]``, NULL_OFFSET past them,
    and the last column is a NULL pad.  The batched twin of
    ``WfaAligner._prune_band`` with identical semantics: each row
    re-centers on its cell of maximum anti-diagonal progress
    ``2 * offset - k`` (ties to the lowest diagonal, matching
    ``np.argmax`` row-wise), clamps the window inside ``lo..hi``, and
    keeps M/I/D in one shared band.  Rows flagged in ``keep`` (retiring
    pairs whose full-width wavefront feeds the backtrace) and rows
    already no wider than the band pass through untouched; ``pruned``
    counts the live cells each row discarded.

    The dropped cells are nulled in ``mid`` itself, so row ``p`` still
    starts at diagonal ``lo[p]`` and is NULL outside its new band.
    Returns ``None``, with ``mid`` untouched, when no row needs trimming.
    """
    m = mid[0]
    pad = m.shape[1] - 1
    need = (m.max(axis=1) >= 0) & ~keep & (hi - lo + 1 > band_width)
    if not np.count_nonzero(need):
        return None

    ks = lo[:, None] + np.arange(pad + 1, dtype=np.int64)
    prog = np.where(m >= 0, 2 * m - ks, PROG_NULL)
    center = lo + np.argmax(prog, axis=1)
    blo = np.minimum(np.maximum(center - band_width // 2, lo), hi - band_width + 1)
    blo = np.where(need, blo, lo)
    bhi = np.where(need, blo + band_width - 1, hi)

    # Cells that are not live are NULL already: nulling the live ones
    # outside the new bands leaves every row NULL past its band.
    dropped = ((ks < blo[:, None]) | (ks > bhi[:, None])) & (mid >= 0)
    pruned = dropped.sum(axis=(0, 2))
    np.putmask(mid, dropped, NULL_OFFSET)
    return BandPruneOutput(lo=blo, hi=bhi, pruned=pruned)


def extend_kernel_batched(
    a_words: np.ndarray,
    b_words: np.ndarray,
    word_rows: np.ndarray,
    ns: np.ndarray,
    ms: np.ndarray,
    offsets: np.ndarray,
    lo: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> BatchedExtendOutput:
    """extend() for one score step of a whole batch, comparing 8-byte words.

    ``a_words``/``b_words`` are :func:`batch_words` matrices (distinct
    sentinels for the two sides) and ``word_rows[p]`` is the word-matrix
    row of offset row ``p``, so a batch can retire pairs without
    compacting its words.  ``offsets`` is ``(pairs, width)`` with row
    ``p`` holding the pre-extension M offsets for diagonals starting at
    ``lo[p]``; ``ns``/``ms`` are the per-row sequence lengths.  The
    extended offsets go to ``out``, a C-contiguous int64 array of the
    same shape that may be ``offsets`` itself (default: a new array).

    All live cells, across *all* pairs, find their
    match length ``L`` together from 8-byte words as :func:`extend_kernel`
    does, so the per-call numpy overhead is paid once per batch instead
    of once per pair.  Per pair, ``matches`` is
    ``sum(L)`` and ``comparisons`` (scalar-equivalent) adds one
    discovery compare per cell that stopped on a mismatch inside both
    sequences, which keeps work counters pair-accurate.
    """
    num_pairs, width = offsets.shape
    if out is None:
        out = offsets.astype(np.int64, order="C")
    elif out is not offsets:
        np.copyto(out, offsets)
    flat = out.reshape(-1)
    cells = (flat >= 0).nonzero()[0]
    rows, ks = np.divmod(cells, max(width, 1))
    ks += lo[rows]
    # Each diagonal ends at the text end ``m`` or the pattern end ``k + n``.
    # A cell already there compares a sentinel on its first byte, so it
    # stays put and counts as stopped at the end.
    stop = np.minimum(ms[rows], ks + ns[rows])
    j0 = flat[cells]
    i0 = j0 - ks
    word_row = word_rows[rows]
    a_pos = word_row * a_words.shape[1] + i0
    b_pos = word_row * b_words.shape[1] + j0
    a_flat = a_words.reshape(-1)
    b_flat = b_words.reshape(-1)

    # ``run`` is the byte index of the first difference, or negative (to
    # be overwritten) for cells whose whole word matched.  Most cells
    # stop in their first word; the few long runs go on ``_TAIL_WORDS``
    # words per pass.  A run always ends by the first sentinel, so words
    # read past it (clipped at the matrix end) never decide anything.
    run = _diff_byte(a_flat[a_pos] ^ b_flat[b_pos])
    todo = (run < 0).nonzero()[0]
    matched = _WORD_BYTES
    while todo.size:
        ahead = matched + _TAIL_STRIDES
        tail, differs = _diff_byte_in_rows(
            a_flat.take(a_pos[todo, None] + ahead, mode="clip")
            ^ b_flat.take(b_pos[todo, None] + ahead, mode="clip")
        )
        run[todo] = matched + tail
        todo = todo[~differs]
        matched += _WORD_BYTES * _TAIL_WORDS

    end = j0 + run
    flat[cells] = end
    stopped = rows[end != stop]
    matches = np.bincount(rows, weights=run, minlength=num_pairs).astype(np.int64)
    comparisons = matches + np.bincount(stopped, minlength=num_pairs)
    return BatchedExtendOutput(offsets=out, matches=matches, comparisons=comparisons)


def extend_kernel(
    a_words: np.ndarray,
    b_words: np.ndarray,
    n: int,
    m: int,
    offsets: np.ndarray,
    lo: int,
    *,
    block: int = 16,
    out: np.ndarray | None = None,
) -> ExtendOutput:
    """extend() for one frame column, comparing 8-byte words.

    ``a_words``/``b_words`` come from :func:`sequence_words` with distinct
    sentinels; build them once per alignment, not per call.  ``offsets``
    holds the pre-extension M offsets for diagonals
    ``lo..lo+len(offsets)-1``; NULL cells are skipped.  The extended
    offsets go to ``out``, an int64 array of the same length that may be
    ``offsets`` itself (default: a new array).

    Every live cell inside both sequences finds its match length ``L``
    one word at a time: the lowest set byte of ``a[i:i+8] ^ b[j:j+8]``
    ends the run, and a sentinel byte always differs, so no bounds
    checks are needed.  The Extend sub-module's work follows in closed
    form.  It compares ``block`` bases per operation (a power of two)
    until one holds a mismatch or a sequence end, so a cell costs
    ``(L + block - at_end) // block`` blocks, where ``at_end`` means the
    run stopped at ``n`` or ``m``.  ``matches`` is ``sum(L)`` and
    ``comparisons`` (scalar-equivalent) adds one discovery compare per
    cell that stopped on a mismatch inside both sequences.
    """
    if out is None:
        out = offsets.astype(np.int64, copy=True)
    elif out is not offsets:
        np.copyto(out, offsets)
    width = len(out)
    blocks = np.zeros(width, dtype=np.int64)
    # Diagonal ``k`` ends at ``stop = min(m, k + n)``; a cell extends iff
    # ``0 <= offset < stop``, one unsigned comparison.
    stop = np.arange(lo + n, lo + n + width, dtype=np.int64)
    np.minimum(stop, m, out=stop)
    np.maximum(stop, 0, out=stop)
    cells = np.flatnonzero(out.view(np.uint64) < stop.view(np.uint64))
    j0 = out[cells]
    i0 = j0 - (cells + lo)

    # ``run`` is the byte index of the first difference, or negative (to
    # be overwritten) for cells whose whole word matched; those go on.
    run = _diff_byte(a_words[i0] ^ b_words[j0])
    todo = (run < 0).nonzero()[0]
    matched = _WORD_BYTES
    while todo.size:
        tail = _diff_byte(a_words[i0[todo] + matched] ^ b_words[j0[todo] + matched])
        run[todo] = matched + tail
        todo = todo[tail < 0]
        matched += _WORD_BYTES

    end = j0 + run
    out[cells] = end
    at_end = end == stop[cells]
    blocks[cells] = (run + block - at_end) >> (block.bit_length() - 1)
    total_matches = int(run.sum(dtype=np.int64))
    return ExtendOutput(
        offsets=out,
        blocks=blocks,
        matches=total_matches,
        comparisons=total_matches + len(cells) - int(np.count_nonzero(at_end)),
    )
