"""The DNA alphabets and the §4.2 unsupported-read policy.

Two alphabets matter.  The *input* alphabet is ``ACGTN``: real read sets
contain 'N', the unknown base, and a pair holding one is a valid request
(§4.2 lists it as a detected case, not an input error).  The *hardware*
alphabet is ``ACGT``, the bases the Aligners can pack to 2 bits; anything
else makes a read unsupported, so the Extractor skips the pair and clears
its Success flag rather than mis-scoring it.

The policy lives here, outside the simulator, so the batch engine applies
the same rule at its boundary as the Extractor does in the simulated
hardware without loading the simulator.
"""

from __future__ import annotations

__all__ = [
    "VALID_BASES",
    "HARDWARE_BASES",
    "UNSUPPORTED_TOO_LONG",
    "UNSUPPORTED_BAD_BASE",
    "read_support_reason",
]

#: The input alphabet: the hardware bases plus 'N'.
VALID_BASES = frozenset("ACGTN")

#: The alphabet the Aligners can pack to 2 bits (§4.2).
HARDWARE_BASES = frozenset("ACGT")

#: Reason codes for unsupported reads (reported in stats/logs, not bits).
UNSUPPORTED_TOO_LONG = "length exceeds MAX_READ_LEN"
UNSUPPORTED_BAD_BASE = "contains non-ACGT bases"


def read_support_reason(seq: str) -> str | None:
    """Why the hardware cannot align ``seq`` by its bases, or ``None``.

    The length half of the §4.2 check, :data:`UNSUPPORTED_TOO_LONG`, needs
    the batch's ``MAX_READ_LEN`` and the read's declared length, so only
    the Extractor applies it.
    """
    if not HARDWARE_BASES >= set(seq):
        return UNSUPPORTED_BAD_BASE
    return None
