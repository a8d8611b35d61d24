"""Pluggable alignment backends for the batch engine.

A *backend* turns a chunk of ``(slot, pattern, text)`` items into
:class:`PairOutcome` records through its one method,
``align_chunk(items, penalties, backtrace, band_width=None) ->
(outcomes, profile | None)``.  Backends are addressed **by name** so
that only plain strings and dataclasses ever cross a process boundary —
the worker side of the engine looks the backend up again in its own
process (see :mod:`repro.engine.engine`).

Four backends ship with the repository.  Two are software WFAs, each
an instance of :class:`SoftwareWfaBackend` that owns the chunk loop,
the band-then-exact retry and the ``band_fallbacks`` /
``peak_wavefront_bytes`` counters; they differ only in how they build
an aligner and run pairs through it:

* ``batched`` — the cross-pair batched WFA
  (:class:`repro.align.BatchedWfaAligner`), the default: the whole chunk
  advances in lockstep through shared 2D kernels, and its stage profile
  (pack/compute/extend/backtrace) is returned with the chunk,
* ``scalar`` — the readable reference WFA (:class:`repro.align.WfaAligner`),
  pair by pair, banded on request.

The other two:

* ``swg`` — the :func:`repro.align.swg_align` DP oracle (Eq. 2),
* ``wfasic`` — the cycle-accurate accelerator simulator: the chunk is
  encoded as a §4.2 input image, run through
  :class:`repro.wfasic.WfasicAccelerator`, and (with backtrace on) the
  CIGARs recovered by the CPU backtrace over the §4.4 result stream.

New backends register through :func:`register_backend`; that is the
extension point.  A backend returns a profile (or ``None``) with every
chunk; the engine merges it into the batch report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..align.penalties import AffinePenalties
from ..align.profile import StageProfiler
from ..align.swg import SwgResult, swg_align
from ..align.wfa import WfaAligner, WfaResult
from ..align.wfa_batched import BatchedWfaAligner

__all__ = [
    "PairOutcome",
    "AlignmentBackend",
    "SoftwareWfaBackend",
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
    """

    slot: int
    score: int
    success: bool = True
    cigar: str | None = None
    ok: bool = True
    error_kind: str | None = None
    error_msg: str | None = None

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


def _outcome(slot: int, res: WfaResult | SwgResult, backtrace: bool) -> PairOutcome:
    """The outcome of one aligner result."""
    # ``res.cigar`` may be the (falsy) empty CIGAR of an empty-vs-empty
    # alignment: still a valid answer, kept as "".
    cigar = res.cigar.compact() if backtrace and res.cigar is not None else None
    return PairOutcome(slot=slot, score=res.score, cigar=cigar)


#: Aligns a list of ``(pattern, text)`` pairs, one result per pair in order.
PairRunner = Callable[[list[tuple[str, str]]], list[WfaResult]]
#: Builds a runner from ``(penalties, backtrace, band_width, profiler)``.
RunnerBuilder = Callable[
    [AffinePenalties, bool, "int | None", StageProfiler], PairRunner
]


class SoftwareWfaBackend(AlignmentBackend):
    """A software WFA aligner behind the chunk contract.

    The software WFAs differ only in how they build an aligner and run a
    list of pairs through it: ``build(penalties, backtrace, band_width,
    profiler)`` returns that :data:`PairRunner`.  Everything else is
    written once, here.  Under ``band_width`` the chunk first runs
    banded; pairs whose band died (``reached_end=False``) are re-run
    through an exact runner, so a collapsed band degrades to exact
    alignment instead of a failed pair.  The profile carries
    ``band_fallbacks`` (retried pairs, banded runs only) and
    ``peak_wavefront_bytes`` (summed per-pair peak stored wavefront
    bytes) as pure counters; a retried pair is charged the larger of its
    banded and exact peaks.
    """

    def __init__(
        self, name: str, build: RunnerBuilder, *, supports_band: bool
    ) -> None:
        self.name = name
        self.build = build
        self.supports_band = supports_band

    def align_chunk(
        self,
        items: Sequence[PairItem],
        penalties: AffinePenalties,
        backtrace: bool,
        band_width: int | None = None,
    ) -> tuple[list[PairOutcome], dict | None]:
        profiler = StageProfiler()
        pairs = [(pattern, text) for _, pattern, text in items]
        results = self.build(penalties, backtrace, band_width, profiler)(pairs)
        peaks = [res.work.peak_wavefront_bytes for res in results]
        if band_width is not None:
            failed = [i for i, res in enumerate(results) if not res.reached_end]
            if failed:
                exact = self.build(penalties, backtrace, None, profiler)
                for i, res in zip(failed, exact([pairs[i] for i in failed])):
                    results[i] = res
                    peaks[i] = max(peaks[i], res.work.peak_wavefront_bytes)
            profiler.count("band_fallbacks", len(failed))
        profiler.count("peak_wavefront_bytes", sum(peaks))
        outcomes = [
            _outcome(slot, res, backtrace)
            for (slot, _, _), res in zip(items, results)
        ]
        return outcomes, profiler.as_dict()


def _pairwise(aligner: WfaAligner) -> PairRunner:
    return lambda pairs: [aligner.align(a, b) for a, b in pairs]


class SwgBackend(AlignmentBackend):
    """The exact DP oracle: slowest, but the ground truth."""

    name = "swg"

    def align_chunk(
        self,
        items: Sequence[PairItem],
        penalties: AffinePenalties,
        backtrace: bool,
        band_width: int | None = None,
    ) -> tuple[list[PairOutcome], dict | None]:
        outcomes = [
            _outcome(slot, swg_align(pattern, text, penalties), backtrace)
            for slot, pattern, text in items
        ]
        return outcomes, None


class WfasicBackend(AlignmentBackend):
    """The accelerator simulator, one §4.2 batch image per chunk.

    Chunk-level batching mirrors the hardware: the whole chunk becomes
    one input image and one accelerator run through the shared batch
    flow, so the Extractor/Collector paths and the hardware limits
    (MAX_READ_LEN, Eq. 6 Score_max) all apply.  Unsupported pairs come
    back with ``success=False``.  The image skips SoC memory: one 10 kbp
    pair at 10 % error streams ~9 MB of backtrace data, so a chunk of
    them would overflow the SoC's 64 MB.
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
        outcomes = [
            PairOutcome(
                slot=slot,
                score=answers.scores[local],
                success=answers.success[local],
                # An empty alignment has the valid empty CIGAR "".
                cigar=None if (cigar := answers.cigars[local]) is None else cigar.compact(),
            )
            for local, (slot, _, _) in enumerate(items)
        ]
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


for _backend in (
    # The readable reference WFA, pair by pair.
    SoftwareWfaBackend(
        "scalar",
        lambda penalties, backtrace, band, _profiler: _pairwise(
            WfaAligner(penalties, keep_backtrace=backtrace, band_width=band)
        ),
        supports_band=True,
    ),
    # The whole chunk in lockstep; the aligner's
    # pack/compute/extend/backtrace profile rides back with it.
    SoftwareWfaBackend(
        "batched",
        lambda penalties, backtrace, band, profiler: BatchedWfaAligner(
            penalties,
            keep_backtrace=backtrace,
            profiler=profiler,
            band_width=band,
        ).align_batch,
        supports_band=True,
    ),
    SwgBackend(),
    WfasicBackend(),
):
    register_backend(_backend)
