"""The fleet scheduler: N simulated WFAsic chips behind one queue.

The serving layer (PR 8) batches *requests*; this layer batches *chips*.
A :class:`FleetScheduler` owns N :class:`~repro.fleet.chip.FleetChip`
instances — each independently configured, each with its own physical
estimate — and routes consecutive micro-batches of an input workload to
them:

* **capability first** — a batch only goes to a chip whose configured
  ``max_read_len`` covers the batch (heterogeneous fleets can mix small
  short-read chips with a few long-read-capable ones);
* **least-loaded second** — the batch goes to the capable chip whose
  simulated queue drains first (``ready_cycle`` plus an integer
  cycles-per-base forecast), ties broken by chip index.

Everything is deterministic and wall-clock-free: routing decisions are
integer comparisons over simulated cycles, so a fleet run is exactly
reproducible — the property the DSE sweep artifact and the handbook
depend on.  Results come back *bit-identical* to a single-chip run of
the same configuration (the per-pair simulation does not depend on which
chip, or which batch, carried the pair); ``tests/fleet`` pins that.

A pair no chip can accept (longer than every chip's ``max_read_len``)
is *unroutable*: it is reported with ``success=False`` and counted in
``fleet_unroutable_total`` rather than aborting the workload — the same
per-pair isolation stance the engine takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics.cups import swg_equivalent_cells
from ..metrics.energy import active_energy_j
from ..obs.metrics import MetricsRegistry
from ..obs.publish import publish_fleet_result
from ..wfasic.asic_model import GF22_FREQUENCY_HZ
from ..wfasic.config import WfasicConfig
from ..workloads.generator import SequencePair
from .chip import DEFAULT_CHIP_MEMORY_BYTES, FleetChip

__all__ = [
    "FleetConfig",
    "FleetPairOutcome",
    "ChipStats",
    "FleetResult",
    "FleetScheduler",
]

@dataclass(frozen=True)
class FleetConfig:
    """Static configuration of one fleet.

    Attributes
    ----------
    chips:
        One :class:`~repro.wfasic.WfasicConfig` per chip.  Heterogeneous
        fleets are first-class: chips may differ in parallel sections,
        ``k_max`` and ``max_read_len``.
    batch_pairs:
        Pairs per routed micro-batch.  Input order is preserved: the
        workload is cut into consecutive slices of this size.
    backtrace:
        Run the backtrace flow (CIGARs recovered by each chip's CPU).
        Requires every chip configuration to have ``backtrace=True``.
    chip_memory_bytes:
        Private main-memory size of each chip's SoC.
    """

    chips: tuple[WfasicConfig, ...]
    batch_pairs: int = 8
    backtrace: bool = False
    chip_memory_bytes: int = DEFAULT_CHIP_MEMORY_BYTES

    def __post_init__(self) -> None:
        if not self.chips:
            raise ValueError("a fleet needs at least one chip")
        if self.batch_pairs < 1:
            raise ValueError("batch_pairs must be >= 1")
        if self.chip_memory_bytes < 1024 * 1024:
            raise ValueError("chip_memory_bytes must be >= 1 MiB")
        if self.backtrace and not all(c.backtrace for c in self.chips):
            raise ValueError(
                "backtrace fleets need every chip configured with backtrace=True"
            )

    @classmethod
    def uniform(
        cls,
        count: int,
        config: WfasicConfig,
        *,
        batch_pairs: int = 8,
        backtrace: bool = False,
        chip_memory_bytes: int = DEFAULT_CHIP_MEMORY_BYTES,
    ) -> "FleetConfig":
        """A homogeneous fleet of ``count`` identical chips."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return cls(
            chips=(config,) * count,
            batch_pairs=batch_pairs,
            backtrace=backtrace,
            chip_memory_bytes=chip_memory_bytes,
        )


@dataclass(frozen=True)
class FleetPairOutcome:
    """Per-pair result of a fleet run, in workload input order."""

    pair_id: int
    score: int
    success: bool
    cigar: str | None
    #: Index of the chip that served the pair, or ``-1`` if unroutable.
    chip_index: int

    @property
    def routed(self) -> bool:
        """Whether any chip accepted this pair."""
        return self.chip_index >= 0


@dataclass(frozen=True)
class ChipStats:
    """Utilisation and physicals of one chip after a fleet run."""

    index: int
    num_aligners: int
    parallel_sections: int
    k_max: int
    max_read_len: int
    busy_cycles: int
    pairs: int
    batches: int
    area_mm2: float
    soc_area_mm2: float
    power_w: float


@dataclass
class FleetResult:
    """Aggregate outcome of one fleet run.

    Throughput is derived from the *makespan* — the cycle at which the
    last chip drains — at the shared §5.2 clock; energy is the active
    energy of every chip (its post-PnR power over its busy cycles), an
    accelerator-side figure that deliberately excludes host idle power.
    """

    outcomes: list[FleetPairOutcome]
    makespan_cycles: int
    chips: list[ChipStats]
    batches: int
    unroutable: int
    #: SWG-equivalent DP cells of the routed pairs (GCUPS basis).
    swg_cells: int
    clock_hz: float = GF22_FREQUENCY_HZ
    _extra: dict[str, float] = field(default_factory=dict, repr=False)

    @property
    def num_pairs(self) -> int:
        """Pairs in the workload, routed or not."""
        return len(self.outcomes)

    @property
    def failed_pairs(self) -> int:
        """Pairs without a successful alignment (unroutable included)."""
        return sum(1 for o in self.outcomes if not o.success)

    @property
    def seconds(self) -> float:
        """Makespan in seconds at the shared clock."""
        return self.makespan_cycles / self.clock_hz

    @property
    def pairs_per_second(self) -> float:
        """Workload pairs over the fleet makespan."""
        if self.makespan_cycles <= 0:
            return 0.0
        return self.num_pairs / self.seconds

    @property
    def gcups(self) -> float:
        """SWG-equivalent GCUPS over the fleet makespan."""
        if self.makespan_cycles <= 0:
            return 0.0
        return self.swg_cells / self.seconds / 1e9

    @property
    def total_area_mm2(self) -> float:
        """Summed accelerator silicon (host cores excluded)."""
        return sum(c.area_mm2 for c in self.chips)

    @property
    def total_soc_area_mm2(self) -> float:
        """Summed SoC silicon (one Sargantana host per chip included)."""
        return sum(c.soc_area_mm2 for c in self.chips)

    @property
    def total_power_w(self) -> float:
        """Summed accelerator power draw of the fleet."""
        return sum(c.power_w for c in self.chips)

    @property
    def energy_j(self) -> float:
        """Active energy: each chip's power over its own busy cycles."""
        return sum(
            active_energy_j(c.power_w, c.busy_cycles, self.clock_hz)
            for c in self.chips
        )

    @property
    def energy_per_pair_j(self) -> float:
        """Active energy per workload pair."""
        if not self.outcomes:
            return 0.0
        return self.energy_j / len(self.outcomes)

    def as_dict(self) -> dict:
        """JSON-ready summary (per-pair outcomes omitted)."""
        return {
            "num_pairs": self.num_pairs,
            "failed_pairs": self.failed_pairs,
            "unroutable": self.unroutable,
            "batches": self.batches,
            "makespan_cycles": self.makespan_cycles,
            "clock_hz": self.clock_hz,
            "pairs_per_second": self.pairs_per_second,
            "gcups": self.gcups,
            "total_area_mm2": self.total_area_mm2,
            "total_soc_area_mm2": self.total_soc_area_mm2,
            "total_power_w": self.total_power_w,
            "energy_j": self.energy_j,
            "energy_per_pair_j": self.energy_per_pair_j,
            "chips": [
                {
                    "index": c.index,
                    "config": f"{c.num_aligners}x{c.parallel_sections}PS",
                    "k_max": c.k_max,
                    "max_read_len": c.max_read_len,
                    "busy_cycles": c.busy_cycles,
                    "pairs": c.pairs,
                    "batches": c.batches,
                    "area_mm2": c.area_mm2,
                    "soc_area_mm2": c.soc_area_mm2,
                    "power_w": c.power_w,
                }
                for c in self.chips
            ],
        }

    def describe(self) -> str:
        """Human-readable summary (the CLI's stdout block)."""
        lines = [
            f"fleet: {len(self.chips)} chip(s), "
            f"{self.num_pairs} pairs in {self.batches} batch(es)",
            f"makespan {self.makespan_cycles} cycles "
            f"({self.seconds * 1e6:.1f} us @ {self.clock_hz / 1e9:g} GHz) "
            f"-> {self.pairs_per_second:,.0f} pairs/s, {self.gcups:.1f} GCUPS",
            f"silicon {self.total_soc_area_mm2:.2f} mm2 SoC "
            f"({self.total_area_mm2:.2f} mm2 accelerator), "
            f"{self.total_power_w * 1e3:.0f} mW, "
            f"{self.energy_per_pair_j * 1e9:.1f} nJ/pair",
        ]
        if self.failed_pairs:
            lines.append(
                f"failures: {self.failed_pairs} pair(s) "
                f"({self.unroutable} unroutable)"
            )
        for c in self.chips:
            share = c.busy_cycles / self.makespan_cycles if self.makespan_cycles else 0.0
            lines.append(
                f"  chip {c.index} [{c.num_aligners}x{c.parallel_sections}PS, "
                f"k_max {c.k_max}, {c.max_read_len} bp]: "
                f"{c.pairs} pairs / {c.batches} batches, "
                f"{c.busy_cycles} cycles ({share:.0%} of makespan)"
            )
        return "\n".join(lines)


class FleetScheduler:
    """Routes an input workload across a fleet of simulated chips."""

    def __init__(
        self, config: FleetConfig, *, registry: MetricsRegistry | None = None
    ) -> None:
        self.config = config
        self.chips = [
            FleetChip(i, chip_config, memory_bytes=config.chip_memory_bytes)
            for i, chip_config in enumerate(config.chips)
        ]
        self._registry = registry

    def run(self, pairs: list[SequencePair]) -> FleetResult:
        """Route ``pairs`` through the fleet; the aggregate result.

        Pair ids must be unique — they key the per-pair outcome map, as
        they do everywhere else in the repository.
        """
        if len({p.pair_id for p in pairs}) != len(pairs):
            raise ValueError("fleet workloads need unique pair_ids")
        outcomes: dict[int, FleetPairOutcome] = {}
        unroutable = 0
        step = self.config.batch_pairs
        for at in range(0, len(pairs), step):
            unroutable += self._route(pairs[at : at + step], outcomes)
        result = FleetResult(
            outcomes=[outcomes[p.pair_id] for p in pairs],
            makespan_cycles=max((c.ready_cycle for c in self.chips), default=0),
            chips=[
                ChipStats(
                    index=c.index,
                    num_aligners=c.config.num_aligners,
                    parallel_sections=c.config.parallel_sections,
                    k_max=c.config.k_max,
                    max_read_len=c.config.max_read_len,
                    busy_cycles=c.busy_cycles,
                    pairs=c.pairs_routed,
                    batches=c.batches,
                    area_mm2=c.report.total_area_mm2,
                    soc_area_mm2=c.report.soc_area_mm2,
                    power_w=c.report.power_w,
                )
                for c in self.chips
            ],
            batches=sum(c.batches for c in self.chips),
            unroutable=unroutable,
            swg_cells=sum(
                swg_equivalent_cells(len(p.pattern), len(p.text))
                for p in pairs
                if outcomes[p.pair_id].routed
            ),
        )
        publish_fleet_result(result, registry=self._registry)
        return result

    # -- routing ---------------------------------------------------------

    def _route(
        self,
        batch: list[SequencePair],
        outcomes: dict[int, FleetPairOutcome],
    ) -> int:
        """Route one micro-batch; the number of unroutable pairs.

        The batch goes to the least-loaded capable chip.  A batch no chip
        accepts whole may still be partly routable, so it is routed pair
        by pair instead.
        """
        parts = [batch]
        if not any(c.supports(batch) for c in self.chips):
            parts = [[pair] for pair in batch]
        unroutable = 0
        for part in parts:
            capable = [c for c in self.chips if c.supports(part)]
            if not capable:
                (pair,) = part
                outcomes[pair.pair_id] = FleetPairOutcome(
                    pair_id=pair.pair_id,
                    score=0,
                    success=False,
                    cigar=None,
                    chip_index=-1,
                )
                unroutable += 1
                continue
            chip = min(
                capable,
                key=lambda c: (c.ready_cycle + c.estimate_cycles(part), c.index),
            )
            _, outcome = chip.run_batch(part, backtrace=self.config.backtrace)
            for pair in part:
                cigar = outcome.cigars.get(pair.pair_id)
                outcomes[pair.pair_id] = FleetPairOutcome(
                    pair_id=pair.pair_id,
                    score=outcome.scores[pair.pair_id],
                    success=outcome.success[pair.pair_id],
                    cigar=None if cigar is None else cigar.compact(),
                    chip_index=chip.index,
                )
        return unroutable
