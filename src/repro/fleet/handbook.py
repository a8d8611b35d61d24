"""Render the capacity-planning handbook's numbers from the sweep artifact.

``docs/fleet.md`` promises that **every number in it traces to the
committed sweep artifact** (``docs/data/fleet_sweep.json``).  This
module is how that promise is kept: the handbook's generated sections —
workload provenance, the Pareto-frontier table, the worked capacity
examples — are rendered *from the artifact document* by the functions
here, spliced between ``FLEET:*`` markers by ``tools/sync_fleet_docs.py``
and pinned against drift by ``tests/fleet/test_handbook.py``.  Nothing
in a generated section is hand-written.

The worked examples answer fixed budget questions (the
:data:`WORKED_BUDGETS`) by *selecting among the artifact's simulated
points* — minimal chip count first, then smallest SoC area — the same
dominance logic the live planner applies, but over committed data so
the handbook stays reproducible without re-simulation.
"""

from __future__ import annotations

__all__ = [
    "WORKED_BUDGETS",
    "best_point_for_budget",
    "render_workload",
    "render_frontier",
    "render_examples",
    "render_handbook_sections",
]

#: The handbook's worked examples: (pairs/s target, SoC mm² cap, W cap).
#: The first row is the ISSUE's canonical "1M pairs/s under 100 mm² and
#: 10 W"; the last is deliberately beyond the swept grid so the handbook
#: shows what an infeasible answer looks like.
WORKED_BUDGETS: tuple[tuple[float, float, float], ...] = (
    (1_000_000, 100.0, 10.0),
    (4_000_000, 12.0, 1.0),
    (8_000_000, 40.0, 4.0),
    (50_000_000, 100.0, 10.0),
)


def _config_label(point: dict) -> str:
    """A point's configuration, rendered the repository's usual way."""
    return (
        f"{point['chips']} × 1x{point['parallel_sections']}PS "
        f"(k_max {point['k_max']})"
    )


def best_point_for_budget(
    doc: dict, pairs_per_sec: float, area_mm2: float, power_w: float
) -> dict | None:
    """The artifact point answering one budget, or ``None``.

    Feasible = serves every pair, meets the rate, fits both caps (SoC
    area convention — host cores included).  Among feasible points the
    winner has the fewest chips, then the smallest SoC area, then the
    lowest power — the planner's own tie-break order.
    """
    feasible = [
        p
        for p in doc["points"]
        if not p["failed_pairs"]
        and p["pairs_per_second"] >= pairs_per_sec
        and p["soc_area_mm2"] <= area_mm2
        and p["power_w"] <= power_w
    ]
    if not feasible:
        return None
    return min(
        feasible,
        key=lambda p: (p["chips"], p["soc_area_mm2"], p["power_w"]),
    )


def render_workload(doc: dict) -> str:
    """The workload-provenance section: what the sweep actually ran."""
    w = doc["workload"]
    grid = doc["grid"]
    sched = doc["scheduler"]
    return (
        f"* **Workload:** input set `{w['input_set']}` — "
        f"{w['num_pairs']} pairs, {w['total_bases']:,} bases, "
        f"longest read {w['max_read_len']} bp, "
        f"{w['swg_cells']:,} SWG-equivalent cells.\n"
        f"* **Grid:** parallel sections {grid['parallel_sections']} × "
        f"k_max {grid['k_max_values']} × chips {grid['chip_counts']} "
        f"at max_read_len {grid['max_read_len']} "
        f"({len(doc['points'])} simulated points).\n"
        "* **Scheduler:** `least-loaded` routing, "
        f"{sched['batch_pairs']} pairs per micro-batch.\n"
        f"* **Clock:** every chip at {doc['clock_hz'] / 1e9:g} GHz "
        f"(§5.2 post-PnR)."
    )


def render_frontier(doc: dict) -> str:
    """The Pareto-frontier table over (pairs/s ↑, SoC mm² ↓, nJ/pair ↓)."""
    lines = [
        "| fleet | SoC area (mm²) | power (mW) | makespan (cycles) "
        "| pairs/s | GCUPS | energy (nJ/pair) |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    frontier_points = [doc["points"][i] for i in doc["frontier"]]
    for p in sorted(frontier_points, key=lambda p: p["pairs_per_second"]):
        lines.append(
            f"| {_config_label(p)} "
            f"| {p['soc_area_mm2']:.2f} "
            f"| {p['power_w'] * 1e3:.0f} "
            f"| {p['makespan_cycles']:,} "
            f"| {p['pairs_per_second']:,.0f} "
            f"| {p['gcups']:.1f} "
            f"| {p['energy_per_pair_j'] * 1e9:.1f} |"
        )
    dominated = sum(
        1 for p in doc["points"] if not p["on_frontier"] and not p["failed_pairs"]
    )
    unservable = sum(1 for p in doc["points"] if p["failed_pairs"])
    lines.append("")
    lines.append(
        f"{len(frontier_points)} of {len(doc['points'])} swept points are "
        f"Pareto-optimal; {dominated} servable point(s) are dominated"
        + (
            f" and {unservable} cannot serve the workload "
            "(failed or unroutable pairs)."
            if unservable
            else "."
        )
    )
    return "\n".join(lines)


def render_examples(doc: dict) -> str:
    """The worked capacity-planning examples over the artifact points."""
    lines = [
        "| budget (pairs/s, ≤ mm², ≤ W) | answer | simulated pairs/s "
        "| SoC area (mm²) | power (mW) |",
        "| --- | --- | --- | --- | --- |",
    ]
    for rate, area, power in WORKED_BUDGETS:
        budget = f"{rate:,.0f}, ≤ {area:g} mm², ≤ {power:g} W"
        point = best_point_for_budget(doc, rate, area, power)
        if point is None:
            lines.append(
                f"| {budget} | **infeasible** at the swept grid | — | — | — |"
            )
            continue
        lines.append(
            f"| {budget} "
            f"| {_config_label(point)} "
            f"| {point['pairs_per_second']:,.0f} "
            f"| {point['soc_area_mm2']:.2f} "
            f"| {point['power_w'] * 1e3:.0f} |"
        )
    return "\n".join(lines)


def render_handbook_sections(doc: dict) -> dict[str, str]:
    """All generated handbook sections, keyed by their marker name."""
    return {
        "WORKLOAD": render_workload(doc),
        "FRONTIER": render_frontier(doc),
        "EXAMPLES": render_examples(doc),
    }
