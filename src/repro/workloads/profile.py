"""Error-profile estimation and Eq. 5 preflight.

§4 bounds what WFAsic can align: "the number of mismatches, gap-openings
and gap-extensions between sequences should satisfy Equation 5".  A
driver that knows its input distribution can check *before* submitting a
batch whether pairs risk the Success-flag-cleared path.

:func:`profile_cigar` extracts the Eq. 5 triple from a known alignment;
:func:`estimate_profile` predicts it for a nominal read length and error
rate (the §5.3 uniform error model); :func:`preflight` answers whether a
configuration supports that workload with a safety margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..align.cigar import Cigar

if TYPE_CHECKING:
    from ..wfasic.config import WfasicConfig

__all__ = ["ErrorProfile", "profile_cigar", "estimate_profile", "preflight"]


@dataclass(frozen=True)
class ErrorProfile:
    """The Eq. 5 error triple of one alignment (or an expectation)."""

    num_mismatches: float
    num_gap_opens: float
    num_gap_characters: float

    def score(self, config: WfasicConfig) -> float:
        """Expected gap-affine penalty under the configuration's model."""
        p = config.penalties
        return (
            self.num_mismatches * p.mismatch
            + self.num_gap_opens * p.gap_open
            + self.num_gap_characters * p.gap_extend
        )


def profile_cigar(cigar: Cigar) -> ErrorProfile:
    """Exact Eq. 5 triple of a concrete alignment."""
    counts = cigar.counts()
    return ErrorProfile(
        num_mismatches=counts["X"],
        num_gap_opens=cigar.num_gap_opens(),
        num_gap_characters=counts["I"] + counts["D"],
    )


def estimate_profile(
    length: int,
    error_rate: float,
    *,
    mismatch_fraction: float = 1 / 3,
    mean_indel_run: float = 1.0,
) -> ErrorProfile:
    """Expected error triple of the §5.3 uniform synthetic model.

    ``error_rate * length`` error characters split between mismatches and
    gap characters; gap characters arrive in runs of ``mean_indel_run``.
    """
    if length < 0 or not 0 <= error_rate <= 1:
        raise ValueError("length >= 0 and error_rate in [0, 1] required")
    if not 0 <= mismatch_fraction <= 1 or mean_indel_run < 1:
        raise ValueError("bad mix parameters")
    errors = length * error_rate
    mismatches = errors * mismatch_fraction
    gap_chars = errors - mismatches
    return ErrorProfile(
        num_mismatches=mismatches,
        num_gap_opens=gap_chars / mean_indel_run,
        num_gap_characters=gap_chars,
    )


def preflight(
    config: WfasicConfig,
    length: int,
    error_rate: float,
    *,
    margin: float = 2.0,
    **estimate_kwargs,
) -> bool:
    """Whether the configuration supports the workload with headroom.

    ``margin`` scales the *expected* score before comparing against
    Eq. 6's ceiling: individual pairs fluctuate around the expectation,
    so a 2x margin keeps the Success-cleared tail negligible.  Also
    rejects workloads whose reads exceed the hardware MAX_READ_LEN.
    """
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    if length > config.max_read_len:
        return False
    expected = estimate_profile(length, error_rate, **estimate_kwargs)
    return expected.score(config) * margin <= config.max_score
