"""Sequence packing for the batched kernels.

The batched aligner needs every pattern (and text) of a batch as one row
of a 2D ``uint8`` matrix, padded with sentinel bytes so a run of
matches always ends by the sequence end.  The aligner turns that matrix
into 8-byte comparison words once per batch
(:func:`repro.align.kernels.batch_words`).
"""

from __future__ import annotations

import numpy as np

from .kernels import SENTINEL_PAD

__all__ = ["pack_batch"]


def pack_batch(seqs: list[str], *, sentinel: int) -> np.ndarray:
    """Stack sequences into a ``(len(seqs), max_len + SENTINEL_PAD)`` matrix.

    Every row is the sequence followed by sentinel bytes out to the
    common width, so row ``r`` holds what
    :func:`repro.align.kernels.pad_sequence` gives for sequence ``r``
    (same sentinel guarantee, same padding), then more sentinels.
    """
    width = max((len(seq) for seq in seqs), default=0) + SENTINEL_PAD
    out = np.full((len(seqs), width), sentinel, dtype=np.uint8)
    for r, seq in enumerate(seqs):
        out[r, : len(seq)] = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    return out
