"""Fleet scaling: multi-chip speedup and planner prediction accuracy.

The PR 9 acceptance measurements:

* a **4-chip fleet** must deliver at least **3x** the single-chip
  throughput on a mixed-length workload (short 100 bp reads plus 1 kbp
  reads — the shape that punishes naive routing, since a 1 kbp batch
  costs ~10x a short one);
* the **capacity planner's predicted rate** must land within **25 %**
  of the rate its own verification fleet actually simulates.

Results land machine-readably in ``benchmarks/results/BENCH_pr9.json``
via the ``bench_json_pr9`` fixture.
"""

from __future__ import annotations

from dataclasses import replace

from repro.fleet import FleetBudget, FleetConfig, FleetScheduler, plan_capacity
from repro.reporting import format_table
from repro.wfasic import WfasicConfig
from repro.workloads import make_input_set

#: The acceptance bar for 4 chips (75 % parallel efficiency).
MIN_SPEEDUP_4CHIP = 3.0

#: Planner prediction must land within this fraction of simulation.
MAX_PREDICTION_ERROR = 0.25

#: One paper-shaped chip, long-read capable so the mixed workload routes.
CHIP = WfasicConfig(
    num_aligners=1,
    parallel_sections=64,
    max_read_len=1600,
    k_max=3998,
    backtrace=False,
)


def _mixed_workload():
    """40 short + 8 long pairs with re-assigned, unique pair ids."""
    short = make_input_set("100-10%", 40)
    long = make_input_set("1K-5%", 8)
    pairs = short + long
    return [replace(p, pair_id=i) for i, p in enumerate(pairs)]


def test_four_chip_fleet_scales_3x(report_table, bench_json_pr9):
    pairs = _mixed_workload()
    rows = []
    rates: dict[int, float] = {}
    for chips in (1, 2, 4):
        result = FleetScheduler(
            FleetConfig.uniform(chips, CHIP, batch_pairs=2)
        ).run(pairs)
        assert result.failed_pairs == 0, f"{chips} chips: failures"
        rates[chips] = result.pairs_per_second
        rows.append(
            [
                chips,
                result.makespan_cycles,
                f"{result.pairs_per_second:,.0f}",
                f"{result.pairs_per_second / rates[1]:.2f}x",
                f"{result.total_soc_area_mm2:.2f}",
                f"{result.energy_per_pair_j * 1e9:.1f}",
            ]
        )

    speedup_2 = rates[2] / rates[1]
    speedup_4 = rates[4] / rates[1]
    report_table(
        format_table(
            ["chips", "makespan (cycles)", "pairs/s", "speedup",
             "SoC mm2", "nJ/pair"],
            rows,
            title="=== Fleet scaling, mixed 100bp+1kbp workload "
            f"({len(pairs)} pairs, batches of 2) ===",
        )
    )
    bench_json_pr9(
        "fleet_scaling",
        {
            "workload": {"short_pairs": 40, "long_pairs": 8},
            "chip": "1x64PS",
            "batch_pairs": 2,
            "pairs_per_second": {str(c): rates[c] for c in rates},
            "speedup_2chip": speedup_2,
            "speedup_4chip": speedup_4,
            "min_speedup_4chip": MIN_SPEEDUP_4CHIP,
        },
    )
    assert speedup_4 >= MIN_SPEEDUP_4CHIP, (
        f"4-chip speedup {speedup_4:.2f}x below the "
        f"{MIN_SPEEDUP_4CHIP}x acceptance bar"
    )


def test_planner_prediction_within_25pct(report_table, bench_json_pr9):
    budget = FleetBudget(pairs_per_sec=6e6, area_mm2=100.0, power_w=10.0)
    plan = plan_capacity(budget)
    assert plan.feasible, "the acceptance budget must be plannable"
    predicted = plan.predicted_pairs_per_second
    simulated = plan.simulated_pairs_per_second
    error = abs(predicted - simulated) / simulated

    report_table(
        format_table(
            ["chips", "config", "predicted pairs/s", "simulated pairs/s",
             "error"],
            [[
                plan.chips,
                f"{plan.config.num_aligners}x{plan.config.parallel_sections}PS",
                f"{predicted:,.0f}",
                f"{simulated:,.0f}",
                f"{error:.1%}",
            ]],
            title="=== Planner prediction vs simulation "
            f"(target {budget.pairs_per_sec:,.0f} pairs/s) ===",
        )
    )
    bench_json_pr9(
        "planner_accuracy",
        {
            "budget": {
                "pairs_per_sec": budget.pairs_per_sec,
                "area_mm2": budget.area_mm2,
                "power_w": budget.power_w,
            },
            "chips": plan.chips,
            "config": (
                f"{plan.config.num_aligners}x"
                f"{plan.config.parallel_sections}PS"
            ),
            "predicted_pairs_per_second": predicted,
            "simulated_pairs_per_second": simulated,
            "relative_error": error,
            "max_relative_error": MAX_PREDICTION_ERROR,
        },
    )
    assert error <= MAX_PREDICTION_ERROR, (
        f"planner prediction off by {error:.1%} "
        f"(> {MAX_PREDICTION_ERROR:.0%})"
    )
