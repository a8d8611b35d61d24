"""Per-stage profiling for the alignment hot path.

The batched aligner and the batch engine both run a small number of
well-defined stages per request (pack, compute, extend, backtrace,
dispatch/IPC, gather).  :class:`StageProfiler` accumulates wall-time and
call counts per stage with close to zero overhead, survives a pickle
round-trip as a plain dict (workers send their counters back with each
chunk), and merges across processes.

The profiler is deliberately dumb: no nesting, no thread-safety, no
sampling.  One instance per aligner/batch, timed with
``time.perf_counter``, merged into the engine's :class:`BatchReport`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["StageStats", "StageProfiler", "format_profile"]


@dataclass
class StageStats:
    """Accumulated cost of one stage: how often, and for how long."""

    calls: int = 0
    seconds: float = 0.0

    def add(self, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds`` of wall-time over ``calls`` invocations."""
        self.calls += calls
        self.seconds += seconds


class StageProfiler:
    """Wall-time and call counters keyed by stage name.

    ``tracer`` is an optional span sink, duck-typed as a
    :class:`repro.obs.trace.Tracer` so this low-level module imports
    nothing from ``repro.obs``.  With one, every :meth:`stage` block is
    also recorded as a complete span in category ``engine``: the one
    clock pair feeds both, so a span's ``dur`` is its stage seconds
    × 1e6.  Aligner-side profilers take no sink; their stages run once
    per score step.
    """

    def __init__(self, tracer: Any = None) -> None:
        self.stages: dict[str, StageStats] = {}
        self.tracer = tracer

    def _stats(self, name: str) -> StageStats:
        stats = self.stages.get(name)
        if stats is None:
            stats = self.stages[name] = StageStats()
        return stats

    @contextmanager
    def stage(
        self, name: str, calls: int = 1, args: dict | None = None
    ) -> Iterator[None]:
        """Time a block: ``with prof.stage("resolve"): ...``.

        The block counts as ``calls`` invocations; ``args`` annotate its
        span when a tracer is attached.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self._stats(name).add(seconds, calls)
            tracer = self.tracer
            if tracer is not None:
                tracer.complete(
                    name,
                    "engine",
                    tracer.perf_to_us(start),
                    seconds * 1e6,
                    args=args,
                )

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds``/``calls`` to a stage directly."""
        self._stats(name).add(seconds, calls)

    def merge(self, other: "StageProfiler | dict | None") -> None:
        """Fold another profiler (or its :meth:`as_dict` form) into this one."""
        if other is None:
            return
        items = (
            other.stages.items()
            if isinstance(other, StageProfiler)
            else other.items()
        )
        for name, stats in items:
            if isinstance(stats, StageStats):
                self._stats(name).add(stats.seconds, stats.calls)
            else:
                self._stats(name).add(stats["seconds"], stats["calls"])

    def as_dict(self) -> dict[str, dict]:
        """Picklable/JSON view: ``{stage: {"calls": n, "seconds": t}}``."""
        return {
            name: {"calls": stats.calls, "seconds": stats.seconds}
            for name, stats in sorted(self.stages.items())
        }


def format_profile(profile: dict[str, dict]) -> str:
    """Human-readable table of an :meth:`StageProfiler.as_dict` payload.

    Stages are sorted by descending wall-time; zero-second stages sink
    to the bottom and show ``-`` in the time columns.
    """
    if not profile:
        return "profile: (no stages recorded)"
    total = sum(entry["seconds"] for entry in profile.values())
    rows = sorted(
        profile.items(), key=lambda kv: (-kv[1]["seconds"], kv[0])
    )
    lines = [f"{'stage':<14} {'calls':>8} {'seconds':>9} {'share':>6}"]
    for name, entry in rows:
        calls, seconds = entry["calls"], entry["seconds"]
        if seconds > 0.0:
            share = f"{seconds / total:.0%}" if total else "-"
            lines.append(f"{name:<14} {calls:>8} {seconds:>9.4f} {share:>6}")
        else:
            lines.append(f"{name:<14} {calls:>8} {'-':>9} {'-':>6}")
    lines.append(f"{'total':<14} {'':>8} {total:>9.4f} {'100%':>6}")
    return "\n".join(lines)
