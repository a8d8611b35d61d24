"""LRU result cache for the batch engine.

Serving traffic repeats itself: the same read aligned against the same
reference window arrives again and again (duplicate requests, retries,
seeds hitting the same region).  Re-running WFA for an identical pair
is pure waste, so the engine keeps a bounded LRU of final outcomes and
answers repeats from memory.

The key is the ``(pattern, text)`` pair alone.  Every engine owns its
cache and a frozen :class:`repro.engine.EngineConfig`, so the backend,
penalties, backtrace flag and band width — everything else that decides
an outcome — are the same for every entry of one cache.  Engines that
differ in any of them have separate caches, so a cache never changes
*what* a request would have returned.
"""

from __future__ import annotations

from collections import OrderedDict

from .backends import PairOutcome

__all__ = ["AlignmentCache"]

#: A cache key: the ``(pattern, text)`` pair.
CacheKey = tuple[str, str]
#: A cached outcome: (score, success, compact CIGAR or None).
CachedValue = tuple[int, bool, "str | None"]


class AlignmentCache:
    """Bounded LRU of alignment outcomes, keyed on ``(pattern, text)``.

    ``capacity`` is the maximum number of cached outcomes; ``0`` disables
    the cache entirely (every lookup misses, nothing is stored).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self._store: OrderedDict[CacheKey, CachedValue] = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: CacheKey) -> CachedValue | None:
        """Look up an outcome, refreshing its LRU position on a hit."""
        value = self._store.get(key)
        if value is not None:
            self._store.move_to_end(key)
        return value

    def put(self, key: CacheKey, value: CachedValue) -> None:
        """Insert (or refresh) an outcome, evicting the LRU tail if full."""
        if self.capacity == 0:
            return
        if key in self._store:
            self._store.move_to_end(key)
        self._store[key] = value
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)

    def put_outcome(self, key: CacheKey, outcome: PairOutcome) -> None:
        """Convenience: store a :class:`PairOutcome`'s cacheable fields.

        Errored outcomes (``ok=False``: backend exceptions, lost workers,
        timeouts) are transient and must never be replayed from the
        cache, so they are silently skipped.
        """
        if not outcome.ok:
            return
        self.put(key, (outcome.score, outcome.success, outcome.cigar))

    def clear(self) -> None:
        """Drop every entry."""
        self._store.clear()
