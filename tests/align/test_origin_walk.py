"""Origin-code backtrace: the batched aligner's codes and the shared walk.

The batched aligner keeps one 5-bit origin code per cell instead of
offsets and recovers CIGARs with the walk the simulator's CPU backtrace
runs (:mod:`repro.align.origin_walk`).  Tie-breaking lives in the codes,
so the property tests below lean on tie-heavy inputs — one- and
two-letter alphabets, tandem repeats, empty sides — and hold the batched
CIGARs to :class:`repro.align.WfaAligner`'s, which walks offsets.
"""

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.align import BatchedWfaAligner, WfaAligner
from repro.align.kernels import compute_kernel, compute_kernel_batched
from repro.align.origin_walk import (
    OriginWalkError,
    insert_matches,
    origin_backtrace,
    walk_origins,
)
from repro.align.penalties import DEFAULT_PENALTIES
from repro.align.wfa import NULL_OFFSET

from tests.verify.test_differential import PENALTY_SETS


def _seq(alphabet: str) -> st.SearchStrategy[str]:
    return st.text(alphabet=alphabet, max_size=24)


_tandem = st.builds(
    lambda unit, reps, cut: (unit * reps)[cut:],
    st.text(alphabet="ACGT", min_size=1, max_size=3),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2),
)

_pair = st.one_of(
    st.sampled_from(["A", "AC", "ACGT"]).flatmap(lambda al: st.tuples(_seq(al), _seq(al))),
    st.tuples(_tandem, _tandem),
    st.tuples(_tandem, _seq("AC")),
    st.tuples(st.just(""), _seq("ACGT")),
    st.tuples(_seq("ACGT"), st.just("")),
)


@given(
    pairs=st.lists(_pair, min_size=1, max_size=6),
    penalties=st.sampled_from(PENALTY_SETS),
    band=st.sampled_from([None, 1, 2, 4, 8]),
)
@settings(max_examples=200, deadline=None)
# Insertion-versus-deletion ties at M.
@example(pairs=[("ACACA", "CACAC"), ("AC", "CA")], penalties=PENALTY_SETS[0], band=None)
@example(pairs=[("AC", "CA")], penalties=PENALTY_SETS[2], band=2)
def test_batched_cigars_equal_scalar(pairs, penalties, band):
    """Batches of one, two and mixed pairs, exact and narrowly banded."""
    _assert_batched_equals_scalar(pairs, penalties, band)


@pytest.mark.parametrize("penalties", PENALTY_SETS, ids=str)
def test_every_short_two_letter_pair(penalties):
    """Exhaustive tie coverage: all pairs over ``AC`` up to length 4."""
    seqs = [
        "".join(chars)
        for length in range(5)
        for chars in itertools.product("AC", repeat=length)
    ]
    _assert_batched_equals_scalar(list(itertools.product(seqs, seqs)), penalties, None)


def _assert_batched_equals_scalar(pairs, penalties, band):
    batched = BatchedWfaAligner(penalties, band_width=band).align_batch(pairs)
    scalar = WfaAligner(penalties, band_width=band)
    for (a, b), got in zip(pairs, batched):
        ref = scalar.align(a, b)
        assert got.reached_end == ref.reached_end
        assert got.score == ref.score
        assert got.cigar == ref.cigar, (a, b)


@pytest.mark.parametrize("penalties", PENALTY_SETS, ids=str)
def test_batched_origins_equal_1d_codes(penalties):
    """Every live cell's code is the one :func:`compute_kernel` emits."""
    rng = np.random.default_rng(17)
    pairs, width = 8, 20
    vals = rng.integers(-1, 12, size=(5, pairs, width)).astype(np.int64)
    vals[vals < 0] = NULL_OFFSET
    # Repeated small values make ties between candidates common.
    lo = rng.integers(-6, 2, size=pairs)
    ns = rng.integers(3, 14, size=pairs)
    ms = rng.integers(3, 14, size=pairs)
    ks = lo[:, None] + np.arange(width, dtype=np.int64)
    out = compute_kernel_batched(
        *vals.copy(), ks, ns[:, None], ms[:, None], emit_origins=True
    )
    assert out.origins is not None and out.origins.dtype == np.uint8
    for r in range(pairs):
        ref = compute_kernel(
            *vals[:, r].copy(), ks[r], int(ns[r]), int(ms[r]), emit_origins=True
        )
        assert (out.origins[r] == ref.origins).all()


def test_origins_off_by_default():
    ks = np.zeros((1, 2), dtype=np.int64)
    vals = np.zeros((5, 1, 2), dtype=np.int64)
    out = compute_kernel_batched(*vals, ks, np.array([[4]]), np.array([[4]]))
    assert out.origins is None


class TestWalk:
    def test_identity_needs_no_codes(self):
        def code_at(s, k):
            raise AssertionError("score 0 has no codes to read")

        assert origin_backtrace(code_at, "ACGT", "ACGT", 0, DEFAULT_PENALTIES).ops == "MMMM"

    def test_null_m_origin_raises(self):
        with pytest.raises(OriginWalkError, match="NULL M origin"):
            walk_origins(lambda s, k: 0, 4, 0, DEFAULT_PENALTIES)

    def test_walk_off_the_origin_raises(self):
        # Substitution codes from (8, 1) reach score 0 on diagonal 1.
        with pytest.raises(OriginWalkError, match="walk ended"):
            walk_origins(lambda s, k: 1, 8, 1, DEFAULT_PENALTIES)

    def test_insert_rejects_ops_past_the_sequences(self):
        with pytest.raises(OriginWalkError, match="past the text end"):
            insert_matches(["Io"], "A", "A")
        with pytest.raises(OriginWalkError, match="lands on a match"):
            insert_matches(["X"], "A", "A")
        with pytest.raises(OriginWalkError, match="consumed"):
            insert_matches([], "AC", "AG")

    def test_long_match_runs(self):
        """Runs span several compare chunks and stop at either end."""
        a = "ACGT" * 50
        assert insert_matches(["X"], a + "A", a + "C").ops == "M" * 200 + "X"
        assert insert_matches(["Do"], a + "G", a).ops == "M" * 200 + "D"
        assert insert_matches(["Io"], a, a + "G").ops == "M" * 200 + "I"
