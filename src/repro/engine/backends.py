"""Pluggable alignment backends for the batch engine.

A *backend* turns a chunk of ``(slot, pattern, text)`` items into
:class:`PairOutcome` records through its one method,
``align_chunk(items, penalties, backtrace, band_width=None) ->
(outcomes, profile | None)``.  Backends are addressed **by name** so
that only plain strings and dataclasses ever cross a process boundary —
the worker side of the engine looks the backend up again in its own
process (see :mod:`repro.engine.engine`).

Three backends ship with the repository, one per concept:

* ``batched`` — the software WFA, the default: the cross-pair batched
  aligner (:class:`repro.align.BatchedWfaAligner`) advances the whole
  chunk in lockstep through shared 2D kernels, banded on request, and
  its stage profile (pack/compute/extend/backtrace) is returned with
  the chunk,
* ``swg`` — the :func:`repro.align.swg_align` DP oracle (Eq. 2), for
  pairs up to :data:`SWG_MAX_CELLS` DP cells,
* ``wfasic`` — the cycle-accurate accelerator simulator: the chunk is
  encoded as a §4.2 input image, run through
  :class:`repro.wfasic.WfasicAccelerator`, and (with backtrace on) the
  CIGARs recovered by the CPU backtrace over the §4.4 result stream.

The per-pair :class:`repro.align.WfaAligner` is the reference the
``batched`` backend is tested against; it is not a backend.

New backends register through :func:`register_backend`; that is the
extension point.  A backend returns a profile (or ``None``) with every
chunk; the engine merges it into the batch report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..align.penalties import AffinePenalties
from ..align.profile import StageProfiler
from ..align.swg import SwgResult, swg_align
from ..align.wfa import WfaResult
from ..align.wfa_batched import BatchedWfaAligner
from ..workloads.alphabet import UNSUPPORTED_TOO_LONG
from .validation import ERROR_UNSUPPORTED_READ

__all__ = [
    "PairOutcome",
    "AlignmentBackend",
    "BatchedWfaBackend",
    "SWG_MAX_CELLS",
    "register_backend",
    "get_backend",
    "backend_names",
]

#: One work item: the caller-assigned slot plus the two sequences.
PairItem = tuple[int, str, str]


@dataclass(frozen=True)
class PairOutcome:
    """Result of aligning one pair.

    ``slot`` echoes the item's slot so outcomes can be reordered after an
    unordered parallel gather.  ``cigar`` is the compact CIGAR string:
    ``None`` when backtrace was off or the alignment failed, and ``""``
    (the valid empty CIGAR) for an empty-vs-empty alignment with
    backtrace on.

    Two independent failure channels coexist:

    * ``success`` is the *hardware* flag: cleared by backends with
      hardware limits (the ``wfasic`` simulator rejecting unsupported
      reads, and the engine applying the same §4.2 policy for every
      backend).  A cleared flag is a well-formed answer, not an error.
    * ``ok``/``error_kind``/``error_msg`` is the *engine* error channel:
      ``ok=False`` marks a pair whose request failed (validation
      rejection, a backend exception, a lost worker or a chunk timeout)
      — see :mod:`repro.engine.validation` for the ``error_kind``
      taxonomy.  Errored outcomes are never cached.

    The ``batched`` backend also reports the work the pair cost:
    ``peak_wavefront_bytes`` (its peak stored wavefront bytes) and
    ``band_fallback`` (its banded run died and it was re-aligned
    exact).  Other backends, and cache hits, leave them at zero.
    """

    slot: int
    score: int
    success: bool = True
    cigar: str | None = None
    ok: bool = True
    error_kind: str | None = None
    error_msg: str | None = None
    peak_wavefront_bytes: int = 0
    band_fallback: bool = False

    @classmethod
    def error(cls, slot: int, kind: str, msg: str) -> "PairOutcome":
        """An errored outcome: no score, both flags down."""
        return cls(
            slot=slot,
            score=0,
            success=False,
            cigar=None,
            ok=False,
            error_kind=kind,
            error_msg=msg,
        )

    @classmethod
    def unsupported(cls, slot: int, kind: str, msg: str) -> "PairOutcome":
        """An unsupported read: the hardware answer (§4.2), not an error."""
        return cls(
            slot=slot,
            score=0,
            success=False,
            cigar=None,
            ok=True,
            error_kind=kind,
            error_msg=msg,
        )


class AlignmentBackend:
    """Base class: a named chunk-at-a-time alignment strategy."""

    name: str = "?"
    #: Whether this backend understands adaptive wavefront banding: the
    #: engine passes a ``band_width`` other than ``None`` (and relies on
    #: the exact-fallback contract of :meth:`align_chunk`) only when this
    #: is ``True``.
    supports_band: bool = False

    def align_chunk(
        self,
        items: Sequence[PairItem],
        penalties: AffinePenalties,
        backtrace: bool,
        band_width: int | None = None,
    ) -> tuple[list[PairOutcome], dict | None]:
        """Align one chunk of ``(slot, pattern, text)`` work items.

        Returns one :class:`PairOutcome` per item (any order; the engine
        maps outcomes back to input positions via ``slot``) plus an
        optional per-stage profile (:meth:`repro.align.StageProfiler.as_dict`)
        that the engine merges into its report.  A band-capable backend
        must retry any pair whose banded run came back
        ``reached_end=False`` with an exact aligner, so a dead band
        degrades to exact alignment instead of a failed pair.
        """
        raise NotImplementedError


def _outcome(
    slot: int,
    res: WfaResult | SwgResult,
    backtrace: bool,
    peak_wavefront_bytes: int = 0,
    band_fallback: bool = False,
) -> PairOutcome:
    """The outcome of one aligner result."""
    # ``res.cigar`` may be the (falsy) empty CIGAR of an empty-vs-empty
    # alignment: still a valid answer, kept as "".
    cigar = res.cigar.compact() if backtrace and res.cigar is not None else None
    return PairOutcome(
        slot=slot,
        score=res.score,
        cigar=cigar,
        peak_wavefront_bytes=peak_wavefront_bytes,
        band_fallback=band_fallback,
    )


class BatchedWfaBackend(AlignmentBackend):
    """The software WFA: the whole chunk in lockstep.

    Under ``band_width`` the chunk first runs banded; pairs whose band
    died (``reached_end=False``) are re-run exact, so a collapsed band
    degrades to exact alignment instead of a failed pair.  Each outcome
    carries the pair's ``peak_wavefront_bytes`` and whether it was
    retried (``band_fallback``); a retried pair is charged the larger
    of its banded and exact peaks.  The profile holds the aligner's
    stage times, both runs included.
    """

    name = "batched"
    supports_band = True

    def align_chunk(
        self,
        items: Sequence[PairItem],
        penalties: AffinePenalties,
        backtrace: bool,
        band_width: int | None = None,
    ) -> tuple[list[PairOutcome], dict | None]:
        profiler = StageProfiler()

        def run(pairs: list[tuple[str, str]], band: int | None) -> list[WfaResult]:
            return BatchedWfaAligner(
                penalties,
                keep_backtrace=backtrace,
                profiler=profiler,
                band_width=band,
            ).align_batch(pairs)

        pairs = [(pattern, text) for _, pattern, text in items]
        results = run(pairs, band_width)
        peaks = [res.work.peak_wavefront_bytes for res in results]
        # Only a banded run can stop short of the end.
        retried = [not res.reached_end for res in results]
        failed = [i for i, dead in enumerate(retried) if dead]
        if failed:
            for i, res in zip(failed, run([pairs[i] for i in failed], None)):
                results[i] = res
                peaks[i] = max(peaks[i], res.work.peak_wavefront_bytes)
        outcomes = [
            _outcome(slot, res, backtrace, peak, fallback)
            for (slot, _, _), res, peak, fallback in zip(
                items, results, peaks, retried
            )
        ]
        return outcomes, profiler.as_dict()


#: Largest ``(n + 1) * (m + 1)`` DP matrix the ``swg`` backend fills: a
#: 2 kbp pair, a few seconds and ~100 MB of matrices.  A 10 kbp pair
#: would take minutes and gigabytes.
SWG_MAX_CELLS = 4_000_000


class SwgBackend(AlignmentBackend):
    """The exact DP oracle: slowest, but the ground truth.

    Its time and memory grow with the DP matrix, so a pair of more than
    :data:`SWG_MAX_CELLS` cells comes back unsupported
    (``unsupported_read``), as the ``wfasic`` backend answers reads past
    MAX_READ_LEN.
    """

    name = "swg"

    def align_chunk(
        self,
        items: Sequence[PairItem],
        penalties: AffinePenalties,
        backtrace: bool,
        band_width: int | None = None,
    ) -> tuple[list[PairOutcome], dict | None]:
        outcomes: list[PairOutcome] = []
        for slot, pattern, text in items:
            cells = (len(pattern) + 1) * (len(text) + 1)
            if cells > SWG_MAX_CELLS:
                outcomes.append(
                    PairOutcome.unsupported(
                        slot,
                        ERROR_UNSUPPORTED_READ,
                        f"{cells} DP cells exceed the swg backend's limit "
                        f"of {SWG_MAX_CELLS}",
                    )
                )
            else:
                res = swg_align(pattern, text, penalties)
                outcomes.append(_outcome(slot, res, backtrace))
        return outcomes, None


class WfasicBackend(AlignmentBackend):
    """The accelerator simulator, one §4.2 batch image per chunk.

    Chunk-level batching mirrors the hardware: the whole chunk becomes
    one input image and one accelerator run through the shared batch
    flow, so the Extractor/Collector paths and the hardware limits
    (MAX_READ_LEN, Eq. 6 Score_max) all apply.  Pairs the hardware
    cannot finish come back with ``success=False``; a read past
    MAX_READ_LEN is also marked ``unsupported_read``, as the ``swg``
    backend marks pairs past its cell limit.  The image skips SoC
    memory: one 10 kbp pair at 10 % error streams ~9 MB of backtrace
    data, so a chunk of them would overflow the SoC's 64 MB.
    """

    name = "wfasic"

    def align_chunk(
        self,
        items: Sequence[PairItem],
        penalties: AffinePenalties,
        backtrace: bool,
        band_width: int | None = None,
    ) -> tuple[list[PairOutcome], dict | None]:
        # Imported lazily to keep the software backends import-light.
        from ..obs.publish import publish_accelerator_batch
        from ..obs.trace import get_tracer
        from ..wfasic.accelerator import WfasicAccelerator, batch_answers
        from ..wfasic.config import WfasicConfig
        from ..workloads.generator import SequencePair

        cfg = WfasicConfig(penalties=penalties, backtrace=backtrace)
        pairs = [
            SequencePair(pattern=pattern, text=text, pair_id=local)
            for local, (_, pattern, text) in enumerate(items)
        ]
        tracer = get_tracer()
        base_us = tracer.now_us() if tracer is not None else None
        batch = WfasicAccelerator(cfg).run_pairs(pairs)
        # Publish the simulated batch: per-stage cycle counters in the
        # registry, and (when tracing) the Extractor/Aligner/Collector
        # schedule mapped onto the cycle timeline, anchored where the
        # simulation began on the wall clock.
        publish_accelerator_batch(batch, base_us=base_us)
        answers = batch_answers(batch, pairs)
        outcomes: list[PairOutcome] = []
        for local, (slot, pattern, text) in enumerate(items):
            if max(len(pattern), len(text)) > cfg.max_read_len:
                # The Extractor skipped the pair (§4.2): it was not aligned.
                outcomes.append(
                    PairOutcome.unsupported(
                        slot, ERROR_UNSUPPORTED_READ, UNSUPPORTED_TOO_LONG
                    )
                )
                continue
            cigar = answers.cigars[local]
            outcomes.append(
                PairOutcome(
                    slot=slot,
                    score=answers.scores[local],
                    success=answers.success[local],
                    # An empty alignment has the valid empty CIGAR "".
                    cigar=None if cigar is None else cigar.compact(),
                )
            )
        return outcomes, None


_BACKENDS: dict[str, AlignmentBackend] = {}


def register_backend(backend: AlignmentBackend, *, replace: bool = False) -> None:
    """Add a backend to the registry (the engine's extension point)."""
    if backend.name in _BACKENDS and not replace:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _BACKENDS[backend.name] = backend


def get_backend(name: str) -> AlignmentBackend:
    """Look a backend up by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(backend_names())}"
        ) from None


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


for _backend in (BatchedWfaBackend(), SwgBackend(), WfasicBackend()):
    register_backend(_backend)
