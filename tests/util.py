"""Shared helpers for the test suite: deterministic sequence generation
and the CIGAR-validity contract every aligner must satisfy."""

from __future__ import annotations

import random
from pathlib import Path

from repro.align.cigar import Cigar
from repro.align.penalties import AffinePenalties, LinearPenalties

DNA = "ACGT"


def assert_valid_cigar(
    cigar: Cigar,
    a: str,
    b: str,
    penalties: AffinePenalties | LinearPenalties | None = None,
    expected_score: int | None = None,
) -> None:
    """The CIGAR contract shared by every alignment engine.

    * the CIGAR consumes exactly ``len(a)`` pattern and ``len(b)`` text
      characters, and every M/X column covers the right characters
      (:meth:`Cigar.validate`),
    * re-scoring the CIGAR under ``penalties`` reproduces
      ``expected_score`` (when both are given).
    """
    assert cigar is not None, "missing CIGAR"
    assert cigar.pattern_length == len(a), (
        f"CIGAR consumes {cigar.pattern_length} pattern chars, "
        f"sequence has {len(a)}"
    )
    assert cigar.text_length == len(b), (
        f"CIGAR consumes {cigar.text_length} text chars, "
        f"sequence has {len(b)}"
    )
    cigar.validate(a, b)
    if penalties is not None and expected_score is not None:
        rescored = cigar.score(penalties)
        assert rescored == expected_score, (
            f"CIGAR re-scores to {rescored}, aligner reported {expected_score}"
        )


def random_seq(rng: random.Random, length: int) -> str:
    """Uniform random DNA sequence of the given length."""
    return "".join(rng.choice(DNA) for _ in range(length))


def mutate(
    rng: random.Random,
    seq: str,
    rate: float,
    *,
    mix: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3),
) -> str:
    """Apply uniform random errors at the given per-base rate.

    ``mix`` gives the relative weight of (mismatch, insertion, deletion);
    this mirrors the synthetic-input methodology of the paper (§5.3).
    """
    w_sub, w_ins, w_del = mix
    total = w_sub + w_ins + w_del
    out: list[str] = []
    for ch in seq:
        r = rng.random()
        if r < rate:
            kind = rng.random() * total
            if kind < w_sub:
                out.append(rng.choice([c for c in DNA if c != ch]))
            elif kind < w_sub + w_ins:
                out.append(rng.choice(DNA) + ch)
            # deletion: emit nothing
        else:
            out.append(ch)
    return "".join(out)


def random_pair(
    rng: random.Random, length: int, rate: float
) -> tuple[str, str]:
    """A pattern and an error-mutated copy of it."""
    a = random_seq(rng, length)
    return a, mutate(rng, a, rate)


def shm_entries() -> set[str]:
    """Names currently in ``/dev/shm`` (empty where it does not exist).

    Leak checks take this before and after a run and assert the
    difference is empty.
    """
    root = Path("/dev/shm")
    return {entry.name for entry in root.iterdir()} if root.is_dir() else set()
