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
    "compute_kernel",
    "extend_kernel",
    "compute_kernel_batched",
    "extend_kernel_batched",
    "gather_window_batched",
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
) -> ComputeOutput:
    """Eq. 3 for one frame column.

    All inputs are aligned to the output diagonals ``ks``: ``m_x[t]`` is
    ``M[s-x, ks[t]]``, ``m_oe_km1[t]`` is ``M[s-o-e, ks[t]-1]``, and so on
    (callers gather the shifted windows; the hardware does the same with
    its banked RAM addressing, Fig. 6).

    Dead cells — offset beyond the text end ``m``, row ``i = offset - k``
    beyond the pattern end ``n``, or no live source — are nulled *before*
    the max so they can never shadow a live candidate.
    """
    ins = np.maximum(m_oe_km1, i_e_km1) + 1
    dele = np.maximum(m_oe_kp1, d_e_kp1)
    sub = m_x + 1

    for arr in (ins, dele, sub):
        dead = (arr > m) | (arr - ks > n) | (arr < 0)
        arr[dead] = NULL_OFFSET

    mwf = np.maximum(np.maximum(ins, dele), sub)

    origins: np.ndarray | None = None
    if emit_origins:
        # Tie-breaking must mirror the backtrace preference order:
        # substitution, then insertion, then deletion; and within I/D,
        # extend over open.
        origins = np.zeros(len(ks), dtype=np.uint8)
        live = mwf >= 0
        m_orig = np.full(len(ks), ORIGIN_M_NONE, dtype=np.uint8)
        take_del = live & (mwf == dele)
        m_orig[take_del] = ORIGIN_M_DEL
        take_ins = live & (mwf == ins)
        m_orig[take_ins] = ORIGIN_M_INS
        take_sub = live & (mwf == sub)
        m_orig[take_sub] = ORIGIN_M_SUB
        origins |= m_orig
        origins |= np.where(i_e_km1 >= m_oe_km1, ORIGIN_I_EXT_BIT, 0).astype(np.uint8)
        origins |= np.where(d_e_kp1 >= m_oe_kp1, ORIGIN_D_EXT_BIT, 0).astype(np.uint8)

    return ComputeOutput(m=mwf, i=ins, d=dele, origins=origins)


#: Bytes (bases) compared per word operation of :func:`extend_kernel`.
_WORD_BYTES = 8
_ONE = np.uint64(1)


def _lowest_bit_exponent(diff: np.ndarray) -> np.ndarray:
    """``b + 1`` for the lowest set bit ``b`` of each word, 0 for a zero word.

    ``diff & -diff`` isolates that bit; as a float64 it is an exact power
    of two, whose ``frexp`` exponent is ``b + 1``.
    """
    return np.frexp((diff & (~diff + _ONE)).astype(np.float64))[1]


def pad_sequence(seq: str, *, sentinel: int, block: int = 16) -> np.ndarray:
    """Sequence bytes followed by ``block`` sentinel bytes.

    The sentinel guarantees that comparisons past the sequence end fail,
    so the vectorised comparator needs no per-row bounds checks (use
    *different* sentinels for the two sequences).
    """
    raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    return np.concatenate([raw, np.full(block, sentinel, dtype=np.uint8)])


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


@dataclass(frozen=True)
class BatchedComputeOutput:
    """One compute() step for a whole batch of pairs."""

    m: np.ndarray  # int64 (pairs, width), NULL_OFFSET where unreachable
    i: np.ndarray
    d: np.ndarray
    live_m: np.ndarray  # bool (pairs,): row has at least one live M cell
    live_i: np.ndarray
    live_d: np.ndarray


@dataclass(frozen=True)
class BatchedExtendOutput:
    """One extend() step for a whole batch of pairs."""

    offsets: np.ndarray  # int64 (pairs, width), post-extension M offsets
    matches: np.ndarray  # int64 (pairs,): matched characters per pair
    comparisons: np.ndarray  # int64 (pairs,): scalar-equivalent compares


def gather_window_batched(
    data: np.ndarray,
    lo_src: np.ndarray,
    hi_src: np.ndarray,
    lo_new: np.ndarray,
    width: int,
    shift: int,
) -> np.ndarray:
    """Per-pair shifted band windows out of a batched wavefront.

    ``data`` is a ``(pairs, W_src)`` wavefront whose row ``p`` covers
    diagonals ``lo_src[p]..hi_src[p]`` (``lo_src[p] == BAND_ABSENT`` for
    pairs without a wavefront).  The result is ``(pairs, width)`` with
    ``out[p, t] = data[p, (lo_new[p] + t + shift) - lo_src[p]]`` where
    that index lands inside the pair's band and NULL_OFFSET elsewhere —
    the batched analog of :meth:`repro.align.wfa.Wavefront.window`, and
    of the hardware's banked per-section RAM addressing (Fig. 6).
    """
    pairs = data.shape[0]
    idx = (
        lo_new[:, None]
        + np.arange(width, dtype=np.int64)[None, :]
        + (shift - lo_src)[:, None]
    )
    in_band = (idx >= 0) & (idx < (hi_src - lo_src + 1)[:, None])
    if data.shape[1] == 0:
        return np.full((pairs, width), NULL_OFFSET, dtype=np.int64)
    np.clip(idx, 0, data.shape[1] - 1, out=idx)
    vals = np.take_along_axis(data, idx, axis=1)
    return np.where(in_band, vals, NULL_OFFSET)


def compute_kernel_batched(
    m_x: np.ndarray,
    m_oe_km1: np.ndarray,
    i_e_km1: np.ndarray,
    m_oe_kp1: np.ndarray,
    d_e_kp1: np.ndarray,
    ks: np.ndarray,
    ns: np.ndarray,
    ms: np.ndarray,
    valid: np.ndarray,
) -> BatchedComputeOutput:
    """Eq. 3 for one score step of a whole batch at once.

    The 2D counterpart of :func:`compute_kernel`: every input is
    ``(pairs, width)`` with row ``p`` aligned to that pair's band (use
    :func:`gather_window_batched` to build the shifted source windows),
    ``ks[p, t]`` is the diagonal of cell ``(p, t)``, ``ns``/``ms`` are
    per-pair sequence lengths broadcastable against the cells (pass
    column vectors), and ``valid`` masks the padding columns beyond each
    pair's band (bands are padded to the widest pair in the batch).
    """
    ins = np.maximum(m_oe_km1, i_e_km1) + 1
    dele = np.maximum(m_oe_kp1, d_e_kp1)
    sub = m_x + 1

    for arr in (ins, dele, sub):
        dead = (arr > ms) | (arr - ks > ns) | (arr < 0) | ~valid
        arr[dead] = NULL_OFFSET

    mwf = np.maximum(np.maximum(ins, dele), sub)
    return BatchedComputeOutput(
        m=mwf,
        i=ins,
        d=dele,
        live_m=(mwf >= 0).any(axis=1),
        live_i=(ins >= 0).any(axis=1),
        live_d=(dele >= 0).any(axis=1),
    )


@dataclass(frozen=True)
class BandPruneOutput:
    """Result of one adaptive band-pruning step for a whole batch."""

    m: np.ndarray  # int64 (pairs, new_width), NULL_OFFSET padded
    i: np.ndarray
    d: np.ndarray
    lo: np.ndarray  # int64 (pairs,): new band start per pair
    hi: np.ndarray  # int64 (pairs,): new band end per pair
    pruned: np.ndarray  # int64 (pairs,): live cells discarded per pair


def band_prune_batched(
    m: np.ndarray,
    i: np.ndarray,
    d: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    band_width: int,
    keep: np.ndarray,
) -> BandPruneOutput:
    """Trim every pair's wavefronts to ``band_width`` diagonals at once.

    The batched twin of ``WfaAligner._prune_band`` with identical
    semantics: each row re-centers on its cell of maximum anti-diagonal
    progress ``2 * offset - k`` (ties to the lowest diagonal, matching
    ``np.argmax`` row-wise), clamps the window inside ``lo..hi``, and
    gathers M/I/D into one shared band.  Rows flagged in ``keep``
    (retiring pairs whose full-width wavefront feeds the backtrace) and
    rows already no wider than the band pass through untouched;
    ``pruned`` counts the live cells each row discarded.
    """
    width = m.shape[1]
    w_rows = hi - lo + 1  # nonsense for BAND_ABSENT rows; masked below
    live_any = (m >= 0).any(axis=1)
    need = live_any & ~keep & (w_rows > band_width)
    if not need.any():
        zeros = np.zeros(m.shape[0], dtype=np.int64)
        return BandPruneOutput(m=m, i=i, d=d, lo=lo, hi=hi, pruned=zeros)

    ks = lo[:, None] + np.arange(width, dtype=np.int64)[None, :]
    prog = np.where(m >= 0, 2 * m - ks, PROG_NULL)
    center = lo + np.argmax(prog, axis=1)
    blo = np.clip(center - band_width // 2, lo, hi - band_width + 1)
    blo = np.where(need, blo, lo)
    bhi = np.where(need, blo + band_width - 1, hi)

    outside = (ks < blo[:, None]) | (ks > bhi[:, None])
    pruned = np.zeros(m.shape[0], dtype=np.int64)
    for arr in (m, i, d):
        pruned += ((arr >= 0) & outside).sum(axis=1)

    new_width = int((bhi - blo).max()) + 1
    # The gather masks by the *source* band, so a pruned row whose new
    # window starts at its old ``lo`` would keep cells beyond ``bhi`` in
    # its padding columns; null everything past each row's new window.
    in_window = (
        np.arange(new_width, dtype=np.int64)[None, :] <= (bhi - blo)[:, None]
    )

    def shrink(arr: np.ndarray) -> np.ndarray:
        out = gather_window_batched(arr, lo, hi, blo, new_width, 0)
        return np.where(in_window, out, NULL_OFFSET)

    return BandPruneOutput(
        m=shrink(m), i=shrink(i), d=shrink(d), lo=blo, hi=bhi, pruned=pruned
    )


def extend_kernel_batched(
    av_pad: np.ndarray,
    bv_pad: np.ndarray,
    ns: np.ndarray,
    ms: np.ndarray,
    offsets: np.ndarray,
    lo: np.ndarray,
    *,
    block: int = 16,
) -> BatchedExtendOutput:
    """extend() for one score step of a whole batch, in 16-base blocks.

    ``av_pad``/``bv_pad`` are :func:`repro.align.packing.pack_batch`
    matrices (one padded sequence per row, distinct sentinels for the
    two sides); ``offsets`` is ``(pairs, width)`` with row ``p`` holding
    the pre-extension M offsets for diagonals starting at ``lo[p]``.

    All still-active cells across *all* pairs advance together: each
    block-loop iteration compares 16 bases for every live cell of every
    pair, so the per-call numpy overhead is paid once per batch instead
    of once per pair.  Per-pair match/comparison counts come back so
    work counters stay pair-accurate.
    """
    num_pairs, width = offsets.shape
    out = offsets.astype(np.int64, copy=True)
    matches = np.zeros(num_pairs, dtype=np.int64)
    comparisons = np.zeros(num_pairs, dtype=np.int64)
    span = np.arange(block, dtype=np.int64)

    ks = lo[:, None] + np.arange(width, dtype=np.int64)[None, :]
    live = out >= 0
    j2d = np.where(live, out, 0)
    i2d = np.where(live, j2d - ks, 0)
    sel = live & (i2d < ns[:, None]) & (j2d < ms[:, None])
    rows, cols = np.nonzero(sel)
    i = i2d[rows, cols]
    j = j2d[rows, cols]

    while rows.size:
        ai = i[:, None] + span
        bj = j[:, None] + span
        neq = av_pad[rows[:, None], ai] != bv_pad[rows[:, None], bj]
        hit = neq.any(axis=1)
        run = np.where(hit, neq.argmax(axis=1), block)
        i += run
        j += run
        matches += np.bincount(rows, weights=run, minlength=num_pairs).astype(
            np.int64
        )
        # Scalar-equivalent comparisons: matched chars, plus one discovery
        # compare for runs stopped by a genuine in-bounds mismatch (a stop
        # at a sequence end costs no compare in the scalar model).
        inside = (i < ns[rows]) & (j < ms[rows])
        comparisons += np.bincount(
            rows, weights=run + (hit & inside), minlength=num_pairs
        ).astype(np.int64)
        keep = (~hit) & inside
        done = ~keep
        out[rows[done], cols[done]] = j[done]
        rows, cols, i, j = rows[keep], cols[keep], i[keep], j[keep]

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
) -> ExtendOutput:
    """extend() for one frame column, comparing 8-byte words.

    ``a_words``/``b_words`` come from :func:`sequence_words` with distinct
    sentinels; build them once per alignment, not per call.  ``offsets``
    holds the pre-extension M offsets for diagonals
    ``lo..lo+len(offsets)-1``; NULL cells are skipped.

    Every live cell inside both sequences finds its match length ``L``
    one word at a time: the lowest set byte of ``a[i:i+8] ^ b[j:j+8]``
    ends the run, and a sentinel byte always differs, so no bounds
    checks are needed.  The Extend sub-module's work follows in closed
    form.  It compares ``block`` bases per operation until one holds a
    mismatch or a sequence end, so a cell costs
    ``(L + block - at_end) // block`` blocks, where ``at_end`` means the
    run stopped at ``n`` or ``m``.  ``matches`` is ``sum(L)`` and
    ``comparisons`` (scalar-equivalent) adds one discovery compare per
    cell that stopped on a mismatch inside both sequences.
    """
    out = offsets.astype(np.int64, copy=True)
    blocks = np.zeros(len(out), dtype=np.int64)
    ks = np.arange(lo, lo + len(out), dtype=np.int64)
    cells = np.flatnonzero((out >= 0) & (out < m) & (out - ks < n))
    j0 = out[cells]
    i0 = j0 - ks[cells]

    # ``run`` is the byte index of the first difference, or -1 (to be
    # overwritten) for cells whose whole word matched; those go on.
    exp = _lowest_bit_exponent(a_words[i0] ^ b_words[j0])
    run = (exp - 1) >> 3
    todo = np.flatnonzero(exp == 0)
    matched = _WORD_BYTES
    while todo.size:
        exp = _lowest_bit_exponent(
            a_words[i0[todo] + matched] ^ b_words[j0[todo] + matched]
        )
        run[todo] = matched + ((exp - 1) >> 3)
        todo = todo[exp == 0]
        matched += _WORD_BYTES

    end = j0 + run
    out[cells] = end
    at_end = (end == m) | (i0 + run == n)
    blocks[cells] = (run + block - at_end) // block
    total_matches = int(run.sum(dtype=np.int64))
    return ExtendOutput(
        offsets=out,
        blocks=blocks,
        matches=total_matches,
        comparisons=total_matches + len(cells) - int(at_end.sum()),
    )
