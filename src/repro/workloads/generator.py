"""Synthetic sequence-pair generation (§5.3 methodology).

The paper evaluates WFAsic on synthetic input sets "with random
mismatches, insertions and deletions, using the same methodology as in
[13, 15]", where "the sequence errors follow a uniform and random
distribution".  This module reproduces that methodology:

* a uniform random DNA *pattern* of the nominal read length,
* a *text* derived from it by applying errors at the nominal rate, with
  the error type drawn uniformly from {mismatch, insertion, deletion}
  (configurable mix),
* everything driven by a seeded :class:`numpy.random.Generator` so every
  input set is exactly reproducible.

Error-rate semantics match the WFA papers: a rate of 10 % on a 10 kbp read
means ~1000 error events, i.e. the per-base probability of an event is the
nominal rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alphabet import VALID_BASES

__all__ = ["SequencePair", "PairGenerator", "ErrorMix"]

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)


@dataclass(frozen=True)
class ErrorMix:
    """Relative weights of the three error types."""

    mismatch: float = 1.0
    insertion: float = 1.0
    deletion: float = 1.0

    def __post_init__(self) -> None:
        if min(self.mismatch, self.insertion, self.deletion) < 0:
            raise ValueError("error weights must be non-negative")
        if self.mismatch + self.insertion + self.deletion <= 0:
            raise ValueError("at least one error weight must be positive")

    def probabilities(self) -> tuple[float, float, float]:
        total = self.mismatch + self.insertion + self.deletion
        return (self.mismatch / total, self.insertion / total, self.deletion / total)


@dataclass(frozen=True)
class SequencePair:
    """One alignment job: a pattern, a text, and its generation metadata."""

    pattern: str
    text: str
    pair_id: int = 0
    nominal_length: int = 0
    nominal_error_rate: float = 0.0
    #: Number of error events actually injected (mismatches + ins + del).
    errors_injected: int = 0

    def __post_init__(self) -> None:
        # Case-fold on construction (same policy as the engine boundary)
        # so lowercase FASTA-style input is served, not rejected.
        for name, seq in (("pattern", self.pattern), ("text", self.text)):
            folded = seq.upper()
            if not set(folded) <= VALID_BASES:
                raise ValueError(f"{name} contains non-DNA characters")
            if folded != seq:
                object.__setattr__(self, name, folded)

    @property
    def max_length(self) -> int:
        return max(len(self.pattern), len(self.text))


@dataclass
class PairGenerator:
    """Reproducible generator of synthetic read pairs.

    Parameters
    ----------
    length:
        Nominal read length (pattern length; the text length varies with
        the injected insertions/deletions).
    error_rate:
        Per-base probability of injecting an error event.
    mix:
        Relative weights of mismatch/insertion/deletion (uniform thirds
        by default, per the paper's methodology).
    seed:
        Seed for the internal PCG64 generator.
    max_text_length:
        Optional hard cap on the generated text length (defaults to no
        cap).  A sequencing read never exceeds its nominal read length,
        and the hardware's MAX_READ_LEN is exactly the nominal 10 kbp, so
        the paper input sets cap both sequences at the nominal length —
        excess insertions at the tail are simply dropped.
    """

    length: int
    error_rate: float
    mix: ErrorMix = field(default_factory=ErrorMix)
    seed: int = 0
    max_text_length: int | None = None
    #: Maximum indel run length.  1 (the default) gives the single-base
    #: events of the WFA benchmark generator; larger values draw each
    #: indel's length uniformly from 1..max, with every gap character
    #: counting as one error (clustered indels, as real sequencers emit).
    max_indel_run: int = 1

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be >= 0")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        if self.max_text_length is not None and self.max_text_length < 0:
            raise ValueError("max_text_length must be >= 0")
        if self.max_indel_run < 1:
            raise ValueError("max_indel_run must be >= 1")
        self._rng = np.random.default_rng(self.seed)
        self._next_id = 0

    # -- generation -------------------------------------------------------

    def pattern(self) -> str:
        """A fresh uniform random DNA sequence of the nominal length."""
        idx = self._rng.integers(0, 4, size=self.length)
        return bytes(_BASES[idx]).decode("ascii")

    def pair(self) -> SequencePair:
        """One pattern/text pair with uniformly distributed errors."""
        pat = self.pattern()
        text, injected = self._mutate(pat)
        pair = SequencePair(
            pattern=pat,
            text=text,
            pair_id=self._next_id,
            nominal_length=self.length,
            nominal_error_rate=self.error_rate,
            errors_injected=injected,
        )
        self._next_id += 1
        return pair

    def batch(self, count: int) -> list[SequencePair]:
        """A list of ``count`` independent pairs."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.pair() for _ in range(count)]

    # -- presets ----------------------------------------------------------

    #: Long-read preset bounds (inclusive): ONT/PacBio read lengths.
    LONG_READ_MIN_LENGTH = 10_000
    LONG_READ_MAX_LENGTH = 100_000

    @classmethod
    def long_read(
        cls,
        length: int = 10_000,
        error_rate: float = 0.02,
        seed: int = 0,
        max_text_length: int | None = None,
    ) -> "PairGenerator":
        """An ONT-like long-read generator (the banding PR's workload).

        Nanopore-style error structure: indel-heavy (deletions over
        insertions over mismatches) with clustered gap runs up to six
        bases, on reads of 10–100 kbp.  ``length`` outside that range
        raises — short reads should use the plain constructor or the
        paper input sets, and anything past 100 kbp outgrows the
        repository's workload envelope.
        """
        if not cls.LONG_READ_MIN_LENGTH <= length <= cls.LONG_READ_MAX_LENGTH:
            raise ValueError(
                "long_read length must be within "
                f"[{cls.LONG_READ_MIN_LENGTH}, {cls.LONG_READ_MAX_LENGTH}] bp, "
                f"got {length}"
            )
        return cls(
            length=length,
            error_rate=error_rate,
            mix=ErrorMix(mismatch=1.0, insertion=1.2, deletion=1.8),
            seed=seed,
            max_text_length=max_text_length,
            max_indel_run=6,
        )

    # -- internals ----------------------------------------------------------

    def _mutate(self, pattern: str) -> tuple[str, int]:
        rng = self._rng
        n = len(pattern)
        if n == 0:
            return "", 0
        pat = np.frombuffer(pattern.encode("ascii"), dtype=np.uint8)
        hit = rng.random(n) < self.error_rate
        p_sub, p_ins, _ = self.mix.probabilities()
        kinds = rng.random(n)

        out = bytearray()
        injected = 0
        skip = 0  # bases consumed by a running deletion
        for pos in range(n):
            base = pat[pos]
            if skip:
                skip -= 1
                injected += 1
                continue
            if not hit[pos]:
                out.append(base)
                continue
            kind = kinds[pos]
            if kind < p_sub:
                injected += 1
                # Substitution: uniform over the three *other* bases.
                choices = _BASES[_BASES != base]
                out.append(int(choices[rng.integers(0, 3)]))
            elif kind < p_sub + p_ins:
                # Insertion run: 1..max random bases before the original.
                run = int(rng.integers(1, self.max_indel_run + 1))
                injected += run
                for _ in range(run):
                    out.append(int(_BASES[rng.integers(0, 4)]))
                out.append(base)
            else:
                # Deletion run: drop this base and up to max-1 following.
                run = int(rng.integers(1, self.max_indel_run + 1))
                injected += 1
                skip = run - 1
        if self.max_text_length is not None and len(out) > self.max_text_length:
            del out[self.max_text_length :]
        return out.decode("ascii"), injected
