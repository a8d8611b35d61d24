"""Input validation and normalization at the batch-engine boundary.

The paper's verification campaign "sends data in unexpected formats and
checks the CPU does not hang" (§5.1): the hardware Extractor detects
unsupported reads and keeps the pipeline alive.  The serving engine
applies the same discipline *before* any pair reaches a backend, so one
malformed request can never take down a batch or crash a worker:

* **Type errors** (bytes, ints, anything non-``str``) are programming
  errors, not data errors: they raise a clean :class:`TypeError` naming
  the offending slot index, always, even in non-strict mode.
* **Case** is folded to uppercase once here, so every backend sees the
  same sequence and results agree bit-for-bit (the ``wfasic`` simulator
  used to reject lowercase outright while software backends silently
  aligned it as all-mismatch).
* **Charset** outside ``ACGTN`` is a per-pair validation *rejection*
  (``error_kind="invalid_base"``).
* **Unsupported reads** — 'N' bases — follow the shared §4.2 policy
  (:func:`repro.workloads.alphabet.read_support_reason`): the pair is
  reported with the hardware ``success`` flag cleared and score 0, the
  same outcome the Extractor produces, whatever backend runs the batch.
"""

from __future__ import annotations

from ..workloads.alphabet import VALID_BASES, read_support_reason

__all__ = [
    "VALID_BASES",
    "ERROR_INVALID_BASE",
    "ERROR_UNSUPPORTED_READ",
    "ERROR_BACKEND",
    "ERROR_TIMEOUT",
    "ERROR_WORKER_LOST",
    "normalize_pair",
    "classify_pair",
]

#: ``PairOutcome.error_kind`` taxonomy (see DESIGN.md, "error handling
#: contract").
ERROR_INVALID_BASE = "invalid_base"
ERROR_UNSUPPORTED_READ = "unsupported_read"
ERROR_BACKEND = "backend_error"
ERROR_TIMEOUT = "timeout"
ERROR_WORKER_LOST = "worker_lost"


def normalize_pair(idx: int, pattern: object, text: object) -> tuple[str, str]:
    """Type-check and case-fold one pair.

    Raises :class:`TypeError` naming the slot index for non-``str``
    input — failing fast here replaces the opaque ``AttributeError``
    that ``bytes`` used to trigger deep inside sequence packing.
    """
    for name, seq in (("pattern", pattern), ("text", text)):
        if not isinstance(seq, str):
            raise TypeError(
                f"pair {idx}: {name} must be str, got "
                f"{type(seq).__name__} ({seq!r})"
            )
    return pattern.upper(), text.upper()


def classify_pair(pattern: str, text: str) -> tuple[str, str] | None:
    """Validation verdict for one (already normalized) pair.

    Returns ``None`` for a pair that may be dispatched to a backend, or
    an ``(error_kind, error_msg)`` tuple:

    * ``("invalid_base", ...)`` — characters outside ``ACGTN``; the
      request itself is malformed and is rejected as an error.
    * ``("unsupported_read", ...)`` — valid request the hardware cannot
      align ('N' bases); reported with ``success=False`` like the
      Extractor does, not as an engine error.
    """
    for name, seq in (("pattern", pattern), ("text", text)):
        bad = set(seq) - VALID_BASES
        if bad:
            return (
                ERROR_INVALID_BASE,
                f"{name} contains characters outside ACGTN: "
                f"{''.join(sorted(bad))!r}",
            )
    for name, seq in (("pattern", pattern), ("text", text)):
        reason = read_support_reason(seq)
        if reason is not None:
            return (ERROR_UNSUPPORTED_READ, f"{name} {reason}")
    return None
