"""Fleet-level scaling: N simulated WFAsic chips, planned and explored.

The paper evaluates one WFAsic instance on one RISC-V SoC; this package
answers the questions a deployment asks next:

* :class:`FleetScheduler` — N independently-configured simulated chips
  behind one queue, each batch routed to the least-loaded capable chip,
  results bit-identical to a single chip's.
* :func:`plan_capacity` / :func:`select_plan` — the capacity planner:
  invert the model ("X pairs/s within Y mm² and Z W → chip count +
  configuration"), verified by actually simulating the selected fleet.
* :func:`run_sweep` / :func:`pareto_frontier_indices` — the DSE sweep
  over compute sections × RAM banking (``k_max``) × chip count, emitting
  the schema-valid Pareto artifact ``docs/fleet.md`` renders from.

CLI: ``repro-wfasic fleet plan|sweep``.  Handbook: ``docs/fleet.md``.
"""

from .chip import DEFAULT_CHIP_MEMORY_BYTES, FleetChip, chip_trace_tid_base
from .dse import SweepGrid, dominates, pareto_frontier_indices, run_sweep
from .handbook import (
    WORKED_BUDGETS,
    best_point_for_budget,
    render_handbook_sections,
)
from .planner import (
    CapacityPlan,
    FleetBudget,
    PlanCandidate,
    SelectedPlan,
    plan_capacity,
    rate_candidates,
    select_plan,
)
from .report import FLEET_SWEEP_SCHEMA, validate_fleet_sweep
from .scheduler import (
    ChipStats,
    FleetConfig,
    FleetPairOutcome,
    FleetResult,
    FleetScheduler,
)

__all__ = [
    "CapacityPlan",
    "ChipStats",
    "DEFAULT_CHIP_MEMORY_BYTES",
    "FLEET_SWEEP_SCHEMA",
    "FleetBudget",
    "FleetChip",
    "FleetConfig",
    "FleetPairOutcome",
    "FleetResult",
    "FleetScheduler",
    "PlanCandidate",
    "SelectedPlan",
    "SweepGrid",
    "WORKED_BUDGETS",
    "best_point_for_budget",
    "chip_trace_tid_base",
    "dominates",
    "pareto_frontier_indices",
    "plan_capacity",
    "rate_candidates",
    "render_handbook_sections",
    "run_sweep",
    "select_plan",
    "validate_fleet_sweep",
]
