"""Unit tests for the reachable-score lattice (§4.3.1 determinism)."""

import random

from repro.align import AffinePenalties, DEFAULT_PENALTIES, ScoreLattice, wfa_align

from tests.util import random_pair


class TestDefaultPenalties:
    def test_paper_score_sequence(self):
        # §4.3.1: "only for some scores wavefront vectors are generated,
        # i.e., 0, 4, 8, 10, 12, 14, and so on".
        lat = ScoreLattice(DEFAULT_PENALTIES)
        assert lat.scores_through(20) == [0, 4, 8, 10, 12, 14, 16, 18, 20]

    def test_score_8_band_matches_paper(self):
        # §4.3.1: "for score 8, only cells k = -1 to k = 1 are valid".
        lat = ScoreLattice(DEFAULT_PENALTIES)
        band = lat.m_band(8)
        assert (band.lo, band.hi) == (-1, 1)

    def test_score_zero(self):
        lat = ScoreLattice(DEFAULT_PENALTIES)
        m, i, d = lat.bands(0)
        assert (m.lo, m.hi) == (0, 0)
        assert i is None and d is None

    def test_unreachable_scores(self):
        lat = ScoreLattice(DEFAULT_PENALTIES)
        for s in (1, 2, 3, 5, 6, 7, 9):
            assert not lat.exists(s)

    def test_i_d_bands_symmetric(self):
        lat = ScoreLattice(DEFAULT_PENALTIES)
        for s in lat.scores_through(60):
            i, d = lat.i_band(s), lat.d_band(s)
            if i is None:
                assert d is None
            else:
                assert (i.lo, i.hi) == (-d.hi, -d.lo)

    def test_band_growth_rate(self):
        # hi grows by at most one diagonal per gap-extend step.
        lat = ScoreLattice(DEFAULT_PENALTIES)
        e = DEFAULT_PENALTIES.gap_extend
        prev = 0
        for s in lat.scores_through(200)[1:]:
            hi = lat.m_band(s).hi
            assert hi <= prev + max(1, (s % e) + 1)
            prev = hi

    def test_deep_resolution_iterative(self):
        # Must not hit the Python recursion limit at chip-scale scores.
        lat = ScoreLattice(DEFAULT_PENALTIES)
        band = lat.m_band(8000)
        assert band.hi == 3997  # consistent with Eq. 6's k_max ~ 3998


class TestSoundness:
    def test_band_contains_all_live_cells(self):
        """Theoretical bands must cover every live diagonal of a real run."""
        rng = random.Random(51)
        for _ in range(20):
            a, b = random_pair(rng, rng.randint(5, 60), 0.3)
            res = wfa_align(a, b)
            lat = ScoreLattice(DEFAULT_PENALTIES)
            # The final score must be on the lattice.
            assert lat.exists(res.score)
            # The terminating diagonal must lie within the theoretical band.
            k_final = len(b) - len(a)
            band = lat.m_band(res.score)
            assert band.lo <= k_final <= band.hi

    def test_other_penalty_sets(self):
        for pen in (
            AffinePenalties(2, 3, 1),
            AffinePenalties(1, 4, 1),
            AffinePenalties(5, 0, 3),
            AffinePenalties(7, 11, 3),
        ):
            lat = ScoreLattice(pen)
            scores = lat.scores_through(60)
            assert scores[0] == 0
            # Mismatch chains are always reachable.
            for mult in range(0, 61 // pen.mismatch):
                assert lat.exists(mult * pen.mismatch)
            # Gap openings reachable at o + e.
            if pen.gap_open_total <= 60:
                assert lat.exists(pen.gap_open_total)

    def test_granularity_skips_cheap(self):
        # With granularity g, no score that is not a multiple of g exists.
        pen = AffinePenalties(4, 6, 2)
        lat = ScoreLattice(pen)
        for s in lat.scores_through(100):
            assert s % pen.score_granularity == 0


class TestSharedLattice:
    def test_one_lattice_per_penalties(self):
        assert ScoreLattice.of(DEFAULT_PENALTIES) is ScoreLattice.of(
            AffinePenalties(4, 6, 2)
        )
        assert ScoreLattice.of(DEFAULT_PENALTIES) is not ScoreLattice.of(
            AffinePenalties(3, 5, 1)
        )

    def test_score_is_published_after_its_bands(self):
        # A shared lattice may be read while another thread fills it:
        # ``s in _m`` marks a score resolved, so its I and D bands must
        # be stored before its M band.
        writes = []

        class Log(dict):
            def __init__(self, name, items):
                super().__init__(items)
                self.name = name

            def __setitem__(self, key, value):
                writes.append((key, self.name))
                super().__setitem__(key, value)

        lat = ScoreLattice(DEFAULT_PENALTIES)
        lat._m, lat._i, lat._d = (
            Log(name, getattr(lat, name).items()) for name in ("_m", "_i", "_d")
        )
        lat.bands(400)
        assert writes
        for s in {key for key, _ in writes}:
            order = [name for key, name in writes if key == s]
            assert order[-1] == "_m" and sorted(order) == ["_d", "_i", "_m"]


class TestBandOps:
    def test_shift_union_clamp(self):
        from repro.align import Band

        band = Band(-2, 3)
        assert band.width == 6
        assert band.shifted(2) == Band(0, 5)
        assert band.union(Band(4, 6)) == Band(-2, 6)
        assert band.clamped(0, 2) == Band(0, 2)
        assert band.clamped(5, 9) is None
