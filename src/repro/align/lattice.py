"""The reachable-score lattice and theoretical wavefront bounds.

Section 4.3.1 of the paper observes that "only for some scores wavefront
vectors are generated, i.e., 0, 4, 8, 10, 12, 14, and so on" (for the
default penalties ``(4, 6, 2)``), and that "the corresponding score of a
column identifies the valid cells of that column".  Both facts are
*data-independent*: which scores can occur, and how wide the wavefront can
possibly be at each score, follow from the penalties alone.

The hardware exploits this determinism twice:

* the Aligner only spends cycles on the valid cells of each frame column,
  so the cycle model needs the theoretical ``lo..hi`` per score, and
* the CPU backtrace code must parse the backtrace stream without any
  side-channel, which is only possible because the per-step block layout
  (score sequence and cell counts) is reproducible from the penalties and
  ``k_max``.

This module provides that shared ground truth.  Existence/bounds follow
the same recurrences as Eq. 3:

* ``I`` exists at ``s`` iff ``M`` exists at ``s - o - e`` or ``I`` at
  ``s - e``; its band is the source band shifted up by one diagonal.
* ``D`` symmetric, shifted down by one diagonal.
* ``M`` exists at ``s`` iff ``s = 0``, ``M`` exists at ``s - x``, or
  ``I``/``D`` exist at ``s``; its band is the envelope of its sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .penalties import AffinePenalties

__all__ = ["Band", "ScoreLattice"]


@dataclass(frozen=True)
class Band:
    """An inclusive diagonal range ``lo..hi``; ``None`` bounds never occur."""

    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def shifted(self, delta: int) -> "Band":
        return Band(self.lo + delta, self.hi + delta)

    def union(self, other: "Band | None") -> "Band":
        if other is None:
            return self
        return Band(min(self.lo, other.lo), max(self.hi, other.hi))

    def clamped(self, lo: int, hi: int) -> "Band | None":
        """Intersect with ``lo..hi``; ``None`` if empty."""
        new_lo = max(self.lo, lo)
        new_hi = min(self.hi, hi)
        if new_lo > new_hi:
            return None
        return Band(new_lo, new_hi)


class ScoreLattice:
    """Lazy memoised map from score to theoretical M/I/D wavefront bands.

    ``bands(s)`` returns ``(m_band, i_band, d_band)`` where each entry is a
    :class:`Band` or ``None`` if no wavefront of that type can exist at
    score ``s``.  Scores are unclamped (no ``k_max`` or sequence-length
    limit); callers clamp to their own geometry.
    """

    def __init__(self, penalties: AffinePenalties) -> None:
        self.penalties = penalties
        self._m: dict[int, Band | None] = {0: Band(0, 0)}
        self._i: dict[int, Band | None] = {0: None}
        self._d: dict[int, Band | None] = {0: None}

    @staticmethod
    def of(penalties: AffinePenalties) -> ScoreLattice:
        """The lattice of ``penalties``, built once and shared: its bands
        depend on nothing else, so every batch reuses what earlier ones
        resolved."""
        return _shared_lattice(penalties)

    # -- queries ---------------------------------------------------------

    def m_band(self, s: int) -> Band | None:
        return self._resolve(s)[0]

    def i_band(self, s: int) -> Band | None:
        return self._resolve(s)[1]

    def d_band(self, s: int) -> Band | None:
        return self._resolve(s)[2]

    def bands(self, s: int) -> tuple[Band | None, Band | None, Band | None]:
        return self._resolve(s)

    def exists(self, s: int) -> bool:
        """Whether any wavefront (equivalently the M wavefront) exists."""
        return self.m_band(s) is not None

    def scores_through(self, s_max: int) -> list[int]:
        """All scores ``0..s_max`` (inclusive) at which wavefronts exist."""
        g = self.penalties.score_granularity
        return [s for s in range(0, s_max + 1, g) if self.exists(s)]

    # -- internals ---------------------------------------------------------

    def _resolve(self, s: int) -> tuple[Band | None, Band | None, Band | None]:
        if s < 0:
            return None, None, None
        if s in self._m:
            return self._m[s], self._i[s], self._d[s]
        p = self.penalties
        # Resolve predecessors iteratively (recursion would overflow the
        # Python stack at 10 kbp scores).
        pending = [s]
        while pending:
            cur = pending[-1]
            if cur in self._m or cur < 0:
                pending.pop()
                continue
            deps = (cur - p.mismatch, cur - p.gap_open_total, cur - p.gap_extend)
            missing = [d for d in deps if d >= 0 and d not in self._m]
            if missing:
                pending.extend(missing)
                continue
            pending.pop()
            self._fill(cur)
        return self._m[s], self._i[s], self._d[s]

    def _get(self, store: dict[int, Band | None], s: int) -> Band | None:
        if s < 0:
            return None
        return store.get(s)

    def _fill(self, s: int) -> None:
        p = self.penalties
        m_oe = self._get(self._m, s - p.gap_open_total)
        i_e = self._get(self._i, s - p.gap_extend)
        d_e = self._get(self._d, s - p.gap_extend)
        m_x = self._get(self._m, s - p.mismatch)

        i_src = m_oe.union(i_e) if m_oe is not None else i_e
        i_band = i_src.shifted(+1) if i_src is not None else None
        d_src = m_oe.union(d_e) if m_oe is not None else d_e
        d_band = d_src.shifted(-1) if d_src is not None else None

        m_band: Band | None
        if m_x is not None:
            m_band = m_x
        else:
            m_band = None
        for extra in (i_band, d_band):
            if extra is not None:
                m_band = extra.union(m_band) if m_band is not None else extra

        # ``s in self._m`` marks the score resolved, so it is set last: a
        # shared lattice may be read by another thread meanwhile.
        self._i[s] = i_band
        self._d[s] = d_band
        self._m[s] = m_band


@lru_cache(maxsize=64)
def _shared_lattice(penalties: AffinePenalties) -> ScoreLattice:
    return ScoreLattice(penalties)
