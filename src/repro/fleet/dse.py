"""Design-space exploration: the fleet sweep and its Pareto frontier.

``examples/design_space_exploration.py`` swept single-chip aligner/PS
grids and printed a table; this module is its fleet-scale successor: a
grid over **compute sections** (parallel sections per Aligner), **RAM
banking** (``k_max`` — the wavefront RAM depth, which sets both the
score capability and most of the silicon) and **chip count**, every
point simulated end to end through the :class:`~repro.fleet.FleetScheduler`
on one fixed workload.

Each point lands in the sweep artifact with its simulated makespan,
throughput, physicals and active energy; the artifact then carries the
**Pareto frontier** over (pairs/s ↑, SoC area ↓, energy/pair ↓).  Points
with any failed pair (score over the point's ``k_max`` budget, or an
unroutable read) stay in the artifact — capability cliffs are part of
the story — but are excluded from the frontier: a config that cannot
serve the workload cannot win it.

Everything here is deterministic (integer cycles, fixed seeds, no
wall-clock), so re-running :func:`run_sweep` with the same grid and
workload reproduces the committed ``docs/data/fleet_sweep.json``
byte for byte — the property that lets ``docs/fleet.md`` claim every
number traces to the artifact.

:func:`pareto_frontier_indices` and :func:`dominates` are pure functions
over plain tuples so the frontier invariants (no dominated point
survives; every excluded point is dominated by a frontier point) are
property-testable without any simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..wfasic.asic_model import GF22_FREQUENCY_HZ, asic_report
from ..wfasic.config import WfasicConfig
from ..workloads.datasets import make_input_set
from ..workloads.generator import SequencePair
from .scheduler import FleetConfig, FleetScheduler

__all__ = [
    "SweepGrid",
    "dominates",
    "pareto_frontier_indices",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepGrid:
    """The swept axes: compute sections × RAM banking × chip count.

    The committed ``docs/data/fleet_sweep.json`` uses the defaults; CI's
    ``fleet-smoke`` job runs a reduced grid through the same code path.
    """

    parallel_sections: tuple[int, ...] = (16, 32, 64, 128)
    k_max_values: tuple[int, ...] = (512, 3998)
    chip_counts: tuple[int, ...] = (1, 2, 4)
    max_read_len: int = 10_000

    def __post_init__(self) -> None:
        if not (self.parallel_sections and self.k_max_values and self.chip_counts):
            raise ValueError("every grid axis needs at least one value")
        if any(v < 1 for v in self.parallel_sections + self.k_max_values + self.chip_counts):
            raise ValueError("grid values must be >= 1")

    def configs(self) -> list[tuple[int, int, int, WfasicConfig]]:
        """The grid points as ``(sections, k_max, chips, config)`` rows,
        in deterministic (sections, k_max, chips) order."""
        rows = []
        for ps in sorted(set(self.parallel_sections)):
            for k_max in sorted(set(self.k_max_values)):
                config = WfasicConfig(
                    num_aligners=1,
                    parallel_sections=ps,
                    max_read_len=self.max_read_len,
                    k_max=k_max,
                    backtrace=False,
                )
                for chips in sorted(set(self.chip_counts)):
                    rows.append((ps, k_max, chips, config))
        return rows


def dominates(
    a: Sequence[float],
    b: Sequence[float],
    *,
    maximize: tuple[int, ...] = (0,),
    minimize: tuple[int, ...] = (1, 2),
) -> bool:
    """Whether point ``a`` Pareto-dominates point ``b``.

    ``a`` dominates when it is at least as good on every listed
    dimension (``>=`` on ``maximize`` indices, ``<=`` on ``minimize``)
    and strictly better on at least one.  Dimensions not listed are
    ignored.
    """
    at_least_as_good = all(
        a[i] >= b[i] for i in maximize
    ) and all(a[i] <= b[i] for i in minimize)
    strictly_better = any(a[i] > b[i] for i in maximize) or any(
        a[i] < b[i] for i in minimize
    )
    return at_least_as_good and strictly_better


def pareto_frontier_indices(
    rows: Sequence[Sequence[float]],
    *,
    maximize: tuple[int, ...] = (0,),
    minimize: tuple[int, ...] = (1, 2),
) -> list[int]:
    """Indices of the non-dominated rows, in input order.

    A row survives iff no other row :func:`dominates` it.  Duplicate
    rows all survive (neither dominates the other), which keeps the
    function permutation-stable — a property ``tests/fleet`` pins.
    """
    return [
        i
        for i, row in enumerate(rows)
        if not any(
            dominates(other, row, maximize=maximize, minimize=minimize)
            for j, other in enumerate(rows)
            if j != i
        )
    ]


def run_sweep(
    grid: SweepGrid | None = None,
    *,
    input_set: str = "100-10%",
    num_pairs: int = 32,
    batch_pairs: int = 4,
    pairs: list[SequencePair] | None = None,
) -> dict:
    """Simulate the whole grid; the schema-valid sweep artifact document.

    The default workload (32 pairs in batches of 4 → 8 micro-batches)
    deliberately over-provisions the largest default chip count so
    multi-chip points have enough batches to overlap — a sweep whose
    batch count is below its chip count measures idle silicon.

    ``pairs`` overrides the named ``input_set`` (the artifact then
    records the custom workload's shape but not a regenerable name).
    The returned document validates against
    :data:`repro.fleet.report.FLEET_SWEEP_SCHEMA`.
    """
    grid = grid or SweepGrid()
    if pairs is None:
        pairs = make_input_set(input_set, num_pairs)
        workload_name = input_set
    else:
        workload_name = f"custom-{len(pairs)}"
    points: list[dict] = []
    for ps, k_max, chips, config in grid.configs():
        report = asic_report(config)
        result = FleetScheduler(
            FleetConfig.uniform(chips, config, batch_pairs=batch_pairs)
        ).run(pairs)
        points.append(
            {
                "parallel_sections": ps,
                "k_max": k_max,
                "chips": chips,
                "max_read_len": grid.max_read_len,
                "area_mm2": chips * report.total_area_mm2,
                "soc_area_mm2": chips * report.soc_area_mm2,
                "power_w": chips * report.power_w,
                "memory_mb": chips * report.memory_mb,
                "makespan_cycles": result.makespan_cycles,
                "busy_cycles": sum(c.busy_cycles for c in result.chips),
                "pairs_per_second": result.pairs_per_second,
                "gcups": result.gcups,
                "energy_per_pair_j": result.energy_per_pair_j,
                "failed_pairs": result.failed_pairs,
                "unroutable": result.unroutable,
            }
        )
    servable = [
        (i, (p["pairs_per_second"], p["soc_area_mm2"], p["energy_per_pair_j"]))
        for i, p in enumerate(points)
        if not p["failed_pairs"]
    ]
    frontier_local = pareto_frontier_indices([row for _, row in servable])
    frontier = sorted(servable[k][0] for k in frontier_local)
    for i, point in enumerate(points):
        point["on_frontier"] = i in frontier
    return {
        "kind": "fleet_sweep",
        "schema_version": 1,
        "clock_hz": GF22_FREQUENCY_HZ,
        "workload": {
            "input_set": workload_name,
            "num_pairs": len(pairs),
            "total_bases": sum(len(p.pattern) + len(p.text) for p in pairs),
            "swg_cells": sum(len(p.pattern) * len(p.text) for p in pairs),
            "max_read_len": max((p.max_length for p in pairs), default=0),
        },
        "grid": {
            "parallel_sections": sorted(set(grid.parallel_sections)),
            "k_max_values": sorted(set(grid.k_max_values)),
            "chip_counts": sorted(set(grid.chip_counts)),
            "max_read_len": grid.max_read_len,
        },
        "scheduler": {"batch_pairs": batch_pairs},
        "points": points,
        "frontier": frontier,
    }
