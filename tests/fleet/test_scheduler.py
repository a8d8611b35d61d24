"""Fleet scheduler behaviour: routing, bit-identity, metrics, traces."""

import json

import pytest

from repro.fleet import (
    DEFAULT_CHIP_MEMORY_BYTES,
    FleetChip,
    FleetConfig,
    FleetScheduler,
    chip_trace_tid_base,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, install_tracer
from repro.soc import Soc
from repro.wfasic import WfasicConfig
from repro.workloads import SequencePair, make_input_set


def small_config(**overrides):
    base = dict(
        num_aligners=1, parallel_sections=16,
        max_read_len=112, k_max=512, backtrace=False,
    )
    base.update(overrides)
    return WfasicConfig(**base)


@pytest.fixture(scope="module")
def pairs():
    return make_input_set("100-10%", num_pairs=12)


class TestFleetConfig:
    def test_uniform_builder(self):
        cfg = FleetConfig.uniform(3, small_config())
        assert len(cfg.chips) == 3

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            FleetConfig(chips=())

    def test_fleet_backtrace_requires_chip_backtrace(self):
        with pytest.raises(ValueError):
            FleetConfig.uniform(1, small_config(), backtrace=True)


class TestRouting:
    def test_all_pairs_served_and_attributed(self, pairs):
        result = FleetScheduler(
            FleetConfig.uniform(3, small_config(), batch_pairs=2)
        ).run(pairs)
        assert result.num_pairs == len(pairs)
        assert result.unroutable == 0 and result.failed_pairs == 0
        served = {o.pair_id for o in result.outcomes}
        assert served == {p.pair_id for p in pairs}
        assert all(o.chip_index >= 0 for o in result.outcomes)
        # With 6 batches over 3 chips, least-loaded spreads the work.
        assert sum(1 for c in result.chips if c.pairs) >= 2

    def test_requires_unique_pair_ids(self):
        dup = [
            SequencePair("ACGT", "ACGT", pair_id=1),
            SequencePair("ACGA", "ACGT", pair_id=1),
        ]
        with pytest.raises(ValueError, match="unique"):
            FleetScheduler(FleetConfig.uniform(1, small_config())).run(dup)

    def test_unroutable_pair_reported_not_raised(self):
        fleet = FleetConfig.uniform(2, small_config(), batch_pairs=4)
        long_pair = SequencePair("A" * 500, "A" * 500, pair_id=99)
        workload = make_input_set("100-10%", num_pairs=4) + [long_pair]
        result = FleetScheduler(fleet).run(workload)
        assert result.unroutable == 1
        nowhere = [o for o in result.outcomes if o.pair_id == 99]
        assert nowhere[0].chip_index == -1
        assert not nowhere[0].success and not nowhere[0].routed
        # The routable pairs of the mixed batch still get served.
        assert result.failed_pairs == 1  # just the unroutable one

    def test_heterogeneous_capability_routing(self, pairs):
        # One small chip (112 bp) + one big chip: long reads must all
        # land on the big chip.
        fleet = FleetConfig(
            chips=(small_config(), small_config(max_read_len=2000)),
            batch_pairs=2,
        )
        long_pairs = make_input_set("1K-5%", num_pairs=4)
        renumbered = [
            SequencePair(p.pattern, p.text, pair_id=1000 + i)
            for i, p in enumerate(long_pairs)
        ]
        result = FleetScheduler(fleet).run(pairs + renumbered)
        for o in result.outcomes:
            if o.pair_id >= 1000:
                assert o.chip_index == 1

    def test_least_loaded_uses_every_chip(self, pairs):
        result = FleetScheduler(
            FleetConfig.uniform(3, small_config(), batch_pairs=2)
        ).run(pairs)
        assert all(c.batches >= 1 for c in result.chips)


class TestBitIdentity:
    def test_fleet_matches_single_chip_scores(self, pairs):
        """Scores/success are independent of fleet shape and batching."""
        single = Soc(small_config()).run_accelerated(pairs)
        for chips, batch_pairs in ((2, 2), (3, 1), (4, 5)):
            fleet = FleetScheduler(
                FleetConfig.uniform(chips, small_config(), batch_pairs=batch_pairs)
            ).run(pairs)
            assert {o.pair_id: o.score for o in fleet.outcomes} == single.scores
            assert {
                o.pair_id: o.success for o in fleet.outcomes
            } == single.success

    def test_fleet_backtrace_matches_single_chip_cigars(self, pairs):
        config = small_config(backtrace=True)
        single = Soc(config).run_accelerated(pairs, backtrace=True)
        fleet = FleetScheduler(
            FleetConfig.uniform(2, config, batch_pairs=3, backtrace=True)
        ).run(pairs)
        cigars = {o.pair_id: o.cigar for o in fleet.outcomes}
        assert cigars == {
            pid: None if c is None else c.compact()
            for pid, c in single.cigars.items()
        }


class TestDeterminismAndAccounting:
    def test_identical_runs_are_cycle_identical(self, pairs):
        def run():
            return FleetScheduler(
                FleetConfig.uniform(3, small_config(), batch_pairs=2)
            ).run(pairs)

        a, b = run(), run()
        assert a.makespan_cycles == b.makespan_cycles
        assert [c.busy_cycles for c in a.chips] == [
            c.busy_cycles for c in b.chips
        ]

    def test_makespan_is_max_chip_busy(self, pairs):
        result = FleetScheduler(
            FleetConfig.uniform(2, small_config(), batch_pairs=3)
        ).run(pairs)
        assert result.makespan_cycles == max(
            c.busy_cycles for c in result.chips
        )
        assert result.pairs_per_second > 0
        assert result.energy_per_pair_j > 0

    def test_fleet_memory_default_is_small(self):
        chip = FleetChip(0, small_config())
        assert chip.soc.memory.size == DEFAULT_CHIP_MEMORY_BYTES


class TestObservability:
    def test_metrics_reconcile_with_result(self, pairs):
        registry = MetricsRegistry()
        result = FleetScheduler(
            FleetConfig.uniform(2, small_config(), batch_pairs=3),
            registry=registry,
        ).run(pairs)
        snap = registry.snapshot()

        def value(name, labels=None):
            for series in snap[name]["series"]:
                if series["labels"] == (labels or {}):
                    return series["value"]
            raise AssertionError(f"no series {name} {labels}")

        assert value("fleet_chips") == 2
        assert value("fleet_pairs_total") == result.num_pairs
        assert value("fleet_unroutable_total") == 0
        assert value("fleet_batches_total") == result.batches
        assert value("fleet_makespan_cycles_total") == result.makespan_cycles
        for chip in result.chips:
            assert (
                value("fleet_busy_cycles_total", {"chip": str(chip.index)})
                == chip.busy_cycles
            )

    def test_per_chip_trace_lanes(self, pairs, tmp_path):
        tracer = Tracer()
        previous = install_tracer(tracer)
        try:
            FleetScheduler(
                FleetConfig.uniform(2, small_config(), batch_pairs=3)
            ).run(pairs)
        finally:
            install_tracer(previous)
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        lane_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e.get("name") == "thread_name" and e.get("pid") == 2
        }
        for chip in (0, 1):
            base = chip_trace_tid_base(chip)
            assert lane_names[base].startswith(f"chip {chip} ·")
            assert f"chip {chip} · aligner 0" in lane_names.values()
        # Alignment spans land in each chip's own lane group.
        span_tids = {
            e["tid"]
            for e in events
            if e.get("ph") == "X" and e.get("cat") == "wfasic:aligner"
        }
        assert any(t >= chip_trace_tid_base(1) for t in span_tids)
        assert any(
            chip_trace_tid_base(0) <= t < chip_trace_tid_base(1)
            for t in span_tids
        )
