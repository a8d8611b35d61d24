"""Backtrace from 5-bit origin codes: the walk and the match insertion.

The hardware keeps no offsets for backtrace.  Its Aligner emits one
origin code per cell (§4.3, :mod:`repro.align.kernels` ``ORIGIN_*``) and
the CPU recovers the alignment in two passes (§4.5):

* :func:`walk_origins` follows the codes from the final cell down to
  score 0.  The codes name only the difference operations (X/I/D), so
  that is all the walk yields;
* :func:`insert_matches` traverses the two sequences and fills in the
  matches between those differences greedily.  This is exact because
  WFA's extend() is maximal: every match run on the path is the greedy
  run from where it starts.

The simulator's CPU backtrace (:mod:`repro.wfasic.backtrace_cpu`) reads
the codes from the §4.4 result stream; the batched software aligner
(:mod:`repro.align.wfa_batched`) reads them from the arrays its compute
kernel returned.  Each passes its own code lookup.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .cigar import Cigar
from .kernels import (
    ORIGIN_D_EXT_BIT,
    ORIGIN_I_EXT_BIT,
    ORIGIN_M_DEL,
    ORIGIN_M_INS,
    ORIGIN_M_SUB,
)
from .penalties import AffinePenalties

__all__ = ["OriginWalkError", "insert_matches", "origin_backtrace", "walk_origins"]

#: ``code_at(s, k)``: the origin code of cell ``(s, k)``.
CodeLookup = Callable[[int, int], int]


class OriginWalkError(RuntimeError):
    """The origin codes do not describe a path from the end to ``(0, 0)``."""


def walk_origins(
    code_at: CodeLookup, score: int, k: int, penalties: AffinePenalties
) -> list[str]:
    """The difference operations from cell ``(score, k)`` down to score 0.

    Returns them in walk order, last operation first: ``"X"``, or a gap
    operation annotated with its run structure, ``"Io"``/``"Do"`` for
    the character that opened a gap run and ``"Ie"``/``"De"`` for one
    that extended it.  ``code_at`` is called once per visited cell.
    """
    x, oe, e = penalties.mismatch, penalties.gap_open_total, penalties.gap_extend
    ops: list[str] = []
    matrix = "M"
    s = score
    code: int | None = None
    # Each op iteration lowers s by at least 1 and every matrix switch
    # is followed by one, so 2*score + slack bounds the walk.
    fuel = 2 * score + 16

    while s > 0:
        if fuel <= 0:
            raise OriginWalkError("origin walk did not converge (corrupt stream?)")
        fuel -= 1
        if code is None:
            code = code_at(s, k)
        if matrix == "M":
            origin = code & 0b111
            if origin == ORIGIN_M_SUB:
                ops.append("X")
                s -= x
                code = None
            elif origin == ORIGIN_M_INS:
                matrix = "I"  # the I bit is in the same cell's code
            elif origin == ORIGIN_M_DEL:
                matrix = "D"
            else:
                raise OriginWalkError(f"NULL M origin at (s={s}, k={k})")
        elif matrix == "I":
            # The extend bit also records the *run structure*: an
            # opened gap character starts a run (matches may precede
            # it), an extension continues one (no matches inside).
            k -= 1
            if code & ORIGIN_I_EXT_BIT:
                ops.append("Ie")
                s -= e
            else:
                ops.append("Io")
                s -= oe
                matrix = "M"
            code = None
        else:  # D
            k += 1
            if code & ORIGIN_D_EXT_BIT:
                ops.append("De")
                s -= e
            else:
                ops.append("Do")
                s -= oe
                matrix = "M"
            code = None

    if s != 0 or k != 0 or matrix != "M":
        raise OriginWalkError(
            f"walk ended at (s={s}, k={k}, {matrix}), expected (0, 0, M)"
        )
    return ops


#: Bytes compared per step of :func:`_match_run`.
_RUN_CHUNK = 64


def _match_run(a: bytes, b: bytes, i: int, j: int) -> int:
    """Length of the common prefix of ``a[i:]`` and ``b[j:]``.

    Compares :data:`_RUN_CHUNK` bytes per step as one integer XOR; the
    lowest set bit of a nonzero XOR marks the first differing byte.  A
    chunk cut short by a sequence end ends the run there.
    """
    run = 0
    while True:
        sa = a[i + run : i + run + _RUN_CHUNK]
        sb = b[j + run : j + run + _RUN_CHUNK]
        size = min(len(sa), len(sb))
        diff = int.from_bytes(sa, "little") ^ int.from_bytes(sb, "little")
        if diff:
            return run + min(((diff & -diff).bit_length() - 1) >> 3, size)
        if size < _RUN_CHUNK:
            return run + size
        run += _RUN_CHUNK


def insert_matches(ops: Sequence[str], a: str, b: str) -> Cigar:
    """Greedy match insertion between the recovered differences.

    ``ops`` are :func:`walk_origins` tokens in *forward* order and ``a``
    and ``b`` ASCII sequences.  Matches
    are inserted only *before* substitutions and run openings: those
    positions are M-states of the WFA path, where extension was
    maximal, so the greedy run is exactly the path's run.  Inside a gap
    run no matches may be inserted, even when the sequences happen to
    agree there — otherwise a coincidental match would split the run
    and raise the gap-open count.
    """
    out: list[str] = []
    i = j = 0
    n, m = len(a), len(b)
    a_bytes, b_bytes = a.encode("ascii"), b.encode("ascii")

    for op in ops:
        if op == "X" or op == "Io" or op == "Do":
            run = _match_run(a_bytes, b_bytes, i, j)
            if run:
                out.append("M" * run)
                i += run
                j += run
        if op == "X":
            if i >= n or j >= m or a[i] == b[j]:
                raise OriginWalkError(
                    f"substitution op lands on a match at ({i}, {j})"
                )
            out.append("X")
            i += 1
            j += 1
        elif op == "Io" or op == "Ie":
            if j >= m:
                raise OriginWalkError("insertion op past the text end")
            out.append("I")
            j += 1
        else:
            if i >= n:
                raise OriginWalkError("deletion op past the pattern end")
            out.append("D")
            i += 1
    run = _match_run(a_bytes, b_bytes, i, j)
    out.append("M" * run)
    i += run
    j += run
    if i != n or j != m:
        raise OriginWalkError(
            f"reconstruction consumed ({i}, {j}) of ({n}, {m}) characters"
        )
    return Cigar("".join(out))


def origin_backtrace(
    code_at: CodeLookup, a: str, b: str, score: int, penalties: AffinePenalties
) -> Cigar:
    """The CIGAR of the path that ends at ``(score, len(b) - len(a))``."""
    ops = walk_origins(code_at, score, len(b) - len(a), penalties)
    ops.reverse()
    return insert_matches(ops, a, b)
