"""Golden pins for the lockstep batched WFA.

Each case hashes every pair's ``(score, CIGAR, reached_end, work
counters)`` from :class:`BatchedWfaAligner` into one SHA-256.  The
digests were recorded before the batched extend kernel compared words
and before the window gathers became single ``take`` calls, so any
kernel speed-up that changes a single score, CIGAR operation or work
counter fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.align.wfa_batched import BatchedWfaAligner
from repro.workloads.generator import PairGenerator


def result_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        cigar = res.cigar.compact() if res.cigar is not None else "-"
        counters = dataclasses.astuple(res.work)
        h.update(f"{res.score}|{cigar}|{res.reached_end}|{counters}\n".encode())
    return h.hexdigest()


def short_pairs():
    gen = PairGenerator(length=150, error_rate=0.05, seed=11)
    return [(p.pattern, p.text) for p in gen.batch(64)]


def noisy_pairs():
    gen = PairGenerator(length=150, error_rate=0.10, seed=23)
    return [(p.pattern, p.text) for p in gen.batch(24)]


def long_pairs():
    gen = PairGenerator.long_read(length=10_000, seed=5)
    return [(p.pattern, p.text) for p in gen.batch(4)]


GOLDEN_SHORT_BACKTRACE = (
    "59ff1a405d8695f6b424c10284bfc5c35fbb238cab4fc63fcc0623bf193441de"
)
GOLDEN_SHORT_SCORE_ONLY = (
    "8217bd8f1ab647abed0c0e00ef3f764fec8c8e5dfc23d78120db2007dfcd2db5"
)
# A noisier 150 bp set, pinned one and two pairs per batch: narrow
# batches take the aligner's small-width paths, where per-step
# bookkeeping rather than kernel work dominates.
GOLDEN_NOISY_BACKTRACE = (
    "1d9e93b9657b3f6393a7b69f38d0eafedda0d96f983f7a6bcdff12da2eb19c7e"
)
GOLDEN_NOISY_SCORE_ONLY = (
    "1ef2d5017fda2844da497c1e037a6ec37cecfea0790e79d062f5acbb8a940cba"
)
GOLDEN_LONG_BANDED = (
    "b1d010ddd60b86968f7bef5acf094f22bfca5a0cb1f58448bf78070b29179501"
)


def test_short_reads_exact_with_backtrace():
    results = BatchedWfaAligner().align_batch(short_pairs())
    assert result_digest(results) == GOLDEN_SHORT_BACKTRACE


def test_short_reads_exact_score_only():
    results = BatchedWfaAligner(keep_backtrace=False).align_batch(short_pairs())
    assert result_digest(results) == GOLDEN_SHORT_SCORE_ONLY


def align_in_batches(aligner, pairs, width):
    results = []
    for start in range(0, len(pairs), width):
        results += aligner.align_batch(pairs[start : start + width])
    return results


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("backtrace", [True, False])
def test_narrow_batches(width, backtrace):
    # Per-pair results never depend on who shares the batch, so the
    # 64-pair set keeps its full-batch digests at every width.
    aligner = BatchedWfaAligner(keep_backtrace=backtrace)
    short = align_in_batches(aligner, short_pairs(), width)
    noisy = align_in_batches(aligner, noisy_pairs(), width)
    if backtrace:
        assert result_digest(short) == GOLDEN_SHORT_BACKTRACE
        assert result_digest(noisy) == GOLDEN_NOISY_BACKTRACE
    else:
        assert result_digest(short) == GOLDEN_SHORT_SCORE_ONLY
        assert result_digest(noisy) == GOLDEN_NOISY_SCORE_ONLY


@pytest.mark.slow
def test_long_reads_banded_with_backtrace():
    results = BatchedWfaAligner(band_width=128).align_batch(long_pairs())
    assert result_digest(results) == GOLDEN_LONG_BANDED
