"""Parallel batch alignment engine: the software serving layer.

Where the paper scales by instantiating hardware aligner sections, this
package scales at the system level: a batch of sequence pairs is
resolved against the engine's own LRU result cache (keyed on the pair),
duplicates are coalesced, and the remainder is sharded in chunks across
a ``multiprocessing`` worker pool running one registered backend: the
cross-pair ``batched`` software WFA (the default), the ``swg`` oracle,
or the cycle-accurate ``wfasic`` simulator.  Every backend has one
method, ``align_chunk(items, penalties, backtrace, band_width) ->
(outcomes, profile | None)``, and every engine path calls it.  Each
parallel chunk is pickled to a worker and its outcomes are pickled
back.  Every batch report carries per-stage profiling counters
(pack/compute/extend/backtrace from the backend,
resolve/dispatch/execute/ipc/gather from the engine); the CLI prints
them with ``repro-wfasic batch --profile``.

Entry points:

* :class:`BatchAlignmentEngine` / :func:`align_pairs` — the engine.
* :func:`register_backend` — plug in a new backend.
* ``repro.cli`` ``batch`` subcommand — the same engine from the shell.
"""

from .backends import (
    AlignmentBackend,
    PairOutcome,
    backend_names,
    get_backend,
    register_backend,
)
from .cache import AlignmentCache
from .engine import (
    BatchAlignmentEngine,
    BatchReport,
    EngineConfig,
    EngineResult,
    WorkerStats,
    align_pairs,
    merge_batch_reports,
)
from .validation import (
    ERROR_BACKEND,
    ERROR_INVALID_BASE,
    ERROR_TIMEOUT,
    ERROR_UNSUPPORTED_READ,
    ERROR_WORKER_LOST,
    VALID_BASES,
    classify_pair,
    normalize_pair,
)

__all__ = [
    "AlignmentBackend",
    "AlignmentCache",
    "BatchAlignmentEngine",
    "BatchReport",
    "EngineConfig",
    "EngineResult",
    "ERROR_BACKEND",
    "ERROR_INVALID_BASE",
    "ERROR_TIMEOUT",
    "ERROR_UNSUPPORTED_READ",
    "ERROR_WORKER_LOST",
    "PairOutcome",
    "VALID_BASES",
    "WorkerStats",
    "align_pairs",
    "backend_names",
    "classify_pair",
    "get_backend",
    "merge_batch_reports",
    "normalize_pair",
    "register_backend",
]
