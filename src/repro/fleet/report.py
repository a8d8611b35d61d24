"""The fleet-sweep artifact schema and validator.

The DSE sweep (:func:`repro.fleet.dse.run_sweep`) emits one JSON
document per run; the committed copy lives at
``docs/data/fleet_sweep.json`` and is the *only* source of numbers for
``docs/fleet.md`` (rendered by ``tools/sync_fleet_docs.py``).  This
module pins the document's shape with the same dependency-free
JSON-schema subset (:func:`repro.obs.schema.validate`) the trace /
metrics / manifest artifacts already use, so CI's ``fleet-smoke`` job
can gate any sweep output — reduced-resolution or committed — against
one schema.
"""

from __future__ import annotations

from ..obs.schema import SchemaError, validate

__all__ = ["FLEET_SWEEP_SCHEMA", "validate_fleet_sweep", "SchemaError"]

#: One simulated grid point of the sweep.
_POINT_SCHEMA = {
    "type": "object",
    "required": [
        "parallel_sections",
        "k_max",
        "chips",
        "max_read_len",
        "area_mm2",
        "soc_area_mm2",
        "power_w",
        "memory_mb",
        "makespan_cycles",
        "busy_cycles",
        "pairs_per_second",
        "gcups",
        "energy_per_pair_j",
        "failed_pairs",
        "unroutable",
        "on_frontier",
    ],
    "additionalProperties": False,
    "properties": {
        "parallel_sections": {"type": "integer", "minimum": 1},
        "k_max": {"type": "integer", "minimum": 1},
        "chips": {"type": "integer", "minimum": 1},
        "max_read_len": {"type": "integer", "minimum": 1},
        "area_mm2": {"type": "number", "minimum": 0},
        "soc_area_mm2": {"type": "number", "minimum": 0},
        "power_w": {"type": "number", "minimum": 0},
        "memory_mb": {"type": "number", "minimum": 0},
        "makespan_cycles": {"type": "integer", "minimum": 0},
        "busy_cycles": {"type": "integer", "minimum": 0},
        "pairs_per_second": {"type": "number", "minimum": 0},
        "gcups": {"type": "number", "minimum": 0},
        "energy_per_pair_j": {"type": "number", "minimum": 0},
        "failed_pairs": {"type": "integer", "minimum": 0},
        "unroutable": {"type": "integer", "minimum": 0},
        "on_frontier": {"type": "boolean"},
    },
}

#: The whole sweep artifact (``kind: fleet_sweep``).
FLEET_SWEEP_SCHEMA = {
    "type": "object",
    "required": [
        "kind",
        "schema_version",
        "clock_hz",
        "workload",
        "grid",
        "scheduler",
        "points",
        "frontier",
    ],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["fleet_sweep"]},
        "schema_version": {"type": "integer", "minimum": 1},
        "clock_hz": {"type": "number", "minimum": 1},
        "workload": {
            "type": "object",
            "required": [
                "input_set",
                "num_pairs",
                "total_bases",
                "swg_cells",
                "max_read_len",
            ],
            "additionalProperties": False,
            "properties": {
                "input_set": {"type": "string"},
                "num_pairs": {"type": "integer", "minimum": 1},
                "total_bases": {"type": "integer", "minimum": 0},
                "swg_cells": {"type": "integer", "minimum": 0},
                "max_read_len": {"type": "integer", "minimum": 0},
            },
        },
        "grid": {
            "type": "object",
            "required": [
                "parallel_sections",
                "k_max_values",
                "chip_counts",
                "max_read_len",
            ],
            "additionalProperties": False,
            "properties": {
                "parallel_sections": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                },
                "k_max_values": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                },
                "chip_counts": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                },
                "max_read_len": {"type": "integer", "minimum": 1},
            },
        },
        "scheduler": {
            "type": "object",
            "required": ["batch_pairs"],
            "additionalProperties": False,
            "properties": {
                "batch_pairs": {"type": "integer", "minimum": 1},
            },
        },
        "points": {"type": "array", "items": _POINT_SCHEMA},
        "frontier": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
    },
}


def validate_fleet_sweep(doc: object) -> None:
    """Validate a sweep artifact; raises :class:`SchemaError` on faults.

    Beyond the schema, the frontier indices must address real points and
    agree with the per-point ``on_frontier`` flags — the cross-field
    consistency a pure JSON schema cannot express.
    """
    validate(doc, FLEET_SWEEP_SCHEMA)
    assert isinstance(doc, dict)
    points = doc["points"]
    frontier = doc["frontier"]
    for index in frontier:
        if index >= len(points):
            raise SchemaError(
                f"$.frontier[{frontier.index(index)}]",
                f"index {index} out of range ({len(points)} points)",
            )
    flagged = sorted(i for i, p in enumerate(points) if p["on_frontier"])
    if flagged != sorted(frontier):
        raise SchemaError(
            "$.frontier", "frontier indices disagree with on_frontier flags"
        )
