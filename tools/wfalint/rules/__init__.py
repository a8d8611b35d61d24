"""Built-in wfalint rules.

Importing this package registers every built-in rule with
:mod:`tools.wfalint.core`.  Each module groups rules by the invariant
family they protect:

* :mod:`.determinism` — W001 (seeded randomness), W007 (no wall-clock
  in the cycle-accurate models);
* :mod:`.cycles` — W002 (integral cycle arithmetic);
* :mod:`.robustness` — W003 (no blanket excepts in worker paths),
  W004 (no mutable default arguments);
* :mod:`.pickle_boundary` — W005 (nothing unpicklable stored on
  objects that cross the multiprocessing boundary);
* :mod:`.metrics_vocab` — W006 (metric names/labels from the declared
  vocabulary);
* :mod:`.output` — W008 (no bare ``print`` in library modules);
* :mod:`.async_blocking` — W009 (no blocking calls reachable from the
  event loop), W014 (no dropped ``create_task`` references);
* :mod:`.await_lock` — W011 (no scheduler re-entry while holding an
  ``asyncio.Lock``);
* :mod:`.artifact_consistency` — W012 (vocabulary ↔ docs ↔ emitted
  span names agree);
* :mod:`.timeout_propagation` — W013 (timeout/deadline parameters
  forwarded to every dispatch);
* :mod:`.suppressions` — W015 (stale inline waivers are findings).

W009 and W011–W013 are :class:`~tools.wfalint.core.ProjectRule` subclasses and
run in phase 2 against the cross-module
:class:`~tools.wfalint.project.ProjectIndex`.
"""

from __future__ import annotations

from . import (  # noqa: F401  — imported for their registration side effect
    artifact_consistency,
    async_blocking,
    await_lock,
    cycles,
    determinism,
    metrics_vocab,
    output,
    pickle_boundary,
    robustness,
    suppressions,
    timeout_propagation,
)

__all__ = [
    "artifact_consistency",
    "async_blocking",
    "await_lock",
    "cycles",
    "determinism",
    "metrics_vocab",
    "output",
    "pickle_boundary",
    "robustness",
    "suppressions",
    "timeout_propagation",
]
