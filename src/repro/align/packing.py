"""Sequence packing for the batched kernels, with a per-sequence cache.

The batched aligner needs every pattern (and text) of a batch as one row
of a 2D ``uint8`` matrix, padded with sentinel bytes so a run of
matches always ends by the sequence end.  The aligner turns that matrix
into 8-byte comparison words once per batch
(:func:`repro.align.kernels.batch_words`).  Converting a Python string
to that padded row (:func:`repro.align.kernels.pad_sequence`) costs an
encode plus an allocation per sequence — pure overhead when the serving
mix repeats sequences, so :class:`PackCache` memoises the rows.

Rows are cached *per sequence*, not per batch: the batch matrix itself
depends on the widest sequence in the batch and is rebuilt each time,
but building it from cached rows is a plain ``ndarray`` copy with no
string handling.  Cached rows are marked read-only so a cache can be
shared between aligners without aliasing bugs.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .kernels import SENTINEL_PAD, pad_sequence

__all__ = ["PackCache", "pack_rows", "pack_batch"]


class PackCache:
    """Bounded LRU of padded sequence rows keyed by ``(seq, sentinel)``.

    ``capacity`` bounds the number of cached rows; ``0`` disables caching
    (every lookup packs afresh).  ``hits``/``misses`` feed the ``pack``
    profiling counters.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 0:
            raise ValueError("pack cache capacity must be >= 0")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def row(self, seq: str, sentinel: int) -> np.ndarray:
        """The padded row for ``seq`` (read-only; cached when possible)."""
        key = (seq, sentinel)
        row = self._store.get(key)
        if row is not None:
            self._store.move_to_end(key)
            self.hits += 1
            return row
        self.misses += 1
        row = pad_sequence(seq, sentinel=sentinel)
        row.flags.writeable = False
        if self.capacity:
            self._store[key] = row
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
        return row

    def clear(self) -> None:
        """Drop every cached row (the hit/miss counters are kept)."""
        self._store.clear()


def pack_rows(
    seqs: list[str], *, sentinel: int, cache: PackCache | None = None
) -> list[np.ndarray]:
    """One padded row per sequence, through the cache when given."""
    if cache is not None:
        return [cache.row(seq, sentinel) for seq in seqs]
    return [pad_sequence(seq, sentinel=sentinel) for seq in seqs]


def pack_batch(
    seqs: list[str], *, sentinel: int, cache: PackCache | None = None
) -> np.ndarray:
    """Stack sequences into a ``(len(seqs), max_len + SENTINEL_PAD)`` matrix.

    Every row is the sequence followed by sentinel bytes out to the
    common width, so row ``r`` is exactly what the 1D kernels would see
    for sequence ``r`` (same sentinel guarantee, same padding).
    """
    rows = pack_rows(seqs, sentinel=sentinel, cache=cache)
    width = max((len(row) for row in rows), default=SENTINEL_PAD)
    out = np.full((len(seqs), width), sentinel, dtype=np.uint8)
    for r, row in enumerate(rows):
        out[r, : len(row)] = row
    return out
