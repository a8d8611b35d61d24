"""DSE sweep: determinism, schema validity, frontier consistency."""

import copy

import pytest

from repro.fleet import (
    SweepGrid,
    dominates,
    pareto_frontier_indices,
    run_sweep,
    validate_fleet_sweep,
)
from repro.fleet.report import SchemaError


SMALL_GRID = SweepGrid(
    parallel_sections=(16, 64),
    k_max_values=(8, 512),
    chip_counts=(1, 2),
    max_read_len=112,
)


@pytest.fixture(scope="module")
def doc():
    return run_sweep(SMALL_GRID, num_pairs=12, batch_pairs=3)


class TestSweepArtifact:
    def test_validates_against_schema(self, doc):
        validate_fleet_sweep(doc)

    def test_covers_the_whole_grid(self, doc):
        assert len(doc["points"]) == 2 * 2 * 2
        seen = {
            (p["parallel_sections"], p["k_max"], p["chips"])
            for p in doc["points"]
        }
        assert len(seen) == 8

    def test_is_deterministic(self, doc):
        again = run_sweep(SMALL_GRID, num_pairs=12, batch_pairs=3)
        assert again == doc

    def test_records_workload_and_scheduler(self, doc):
        assert doc["workload"]["input_set"] == "100-10%"
        assert doc["workload"]["num_pairs"] == 12
        assert doc["scheduler"] == {"batch_pairs": 3}

    def test_physicals_scale_linearly_with_chips(self, doc):
        by_key = {
            (p["parallel_sections"], p["k_max"], p["chips"]): p
            for p in doc["points"]
        }
        one = by_key[(16, 512, 1)]
        two = by_key[(16, 512, 2)]
        assert two["soc_area_mm2"] == pytest.approx(2 * one["soc_area_mm2"])
        assert two["power_w"] == pytest.approx(2 * one["power_w"])

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SweepGrid(parallel_sections=())
        with pytest.raises(ValueError):
            SweepGrid(chip_counts=(0,))


class TestFrontierConsistency:
    def test_frontier_matches_flags(self, doc):
        flagged = [i for i, p in enumerate(doc["points"]) if p["on_frontier"]]
        assert flagged == doc["frontier"]
        assert doc["frontier"], "some point is always non-dominated"

    def test_failed_points_never_on_frontier(self, doc):
        # k_max 8 caps the score at 20 (Eq. 6) — far below what ~10
        # differences on a 100bp-10% read cost — so those points fail;
        # they stay in the artifact but off the frontier.
        failed = [p for p in doc["points"] if p["failed_pairs"]]
        assert failed, "the 8-k_max axis should produce capability cliffs"
        assert all(not p["on_frontier"] for p in failed)

    def test_no_frontier_point_is_dominated(self, doc):
        rows = [
            (p["pairs_per_second"], p["soc_area_mm2"], p["energy_per_pair_j"])
            for p in doc["points"]
        ]
        servable = [i for i, p in enumerate(doc["points"]) if not p["failed_pairs"]]
        for i in doc["frontier"]:
            assert not any(
                dominates(rows[j], rows[i]) for j in servable if j != i
            )

    def test_frontier_recomputes_from_points(self, doc):
        servable = [
            (i, (p["pairs_per_second"], p["soc_area_mm2"], p["energy_per_pair_j"]))
            for i, p in enumerate(doc["points"])
            if not p["failed_pairs"]
        ]
        local = pareto_frontier_indices([row for _, row in servable])
        assert sorted(servable[k][0] for k in local) == doc["frontier"]


class TestValidatorRejections:
    def test_rejects_out_of_range_frontier_index(self, doc):
        bad = copy.deepcopy(doc)
        bad["frontier"] = [len(bad["points"])]
        for p in bad["points"]:
            p["on_frontier"] = False
        with pytest.raises(SchemaError, match="out of range"):
            validate_fleet_sweep(bad)

    def test_rejects_flag_mismatch(self, doc):
        bad = copy.deepcopy(doc)
        flip = bad["points"][bad["frontier"][0]]
        flip["on_frontier"] = False
        with pytest.raises(SchemaError, match="disagree"):
            validate_fleet_sweep(bad)

    def test_rejects_wrong_kind(self, doc):
        bad = copy.deepcopy(doc)
        bad["kind"] = "fleet_sweeep"
        with pytest.raises(SchemaError):
            validate_fleet_sweep(bad)

    def test_rejects_missing_point_field(self, doc):
        bad = copy.deepcopy(doc)
        del bad["points"][0]["gcups"]
        with pytest.raises(SchemaError):
            validate_fleet_sweep(bad)
