"""WFAsic reproduction — a cycle-approximate simulator of the paper

"WFAsic: A High-Performance ASIC Accelerator for DNA Sequence Alignment on
a RISC-V SoC" (Haghi et al., ICPP 2023).

Subpackages
-----------
``repro.align``
    Alignment algorithms: SWG/gap-linear DP oracles, scalar, vectorised
    and cross-pair batched WFA, the origin-code backtrace walk, CIGARs,
    penalties, the reachable-score lattice.
``repro.engine``
    The batch alignment engine: named backends (``batched``, ``swg``,
    ``wfasic``), worker-pool dispatch with fault isolation, the result
    cache and the batch report.
``repro.serve``
    The always-on alignment service: NDJSON socket protocol, the
    micro-batching scheduler and the ``submit`` client.
``repro.obs``
    Observability: the metrics registry, Chrome-trace spans and run
    manifests.
``repro.fleet``
    Fleets of WFAsic chips: routing across chips, design-space
    exploration and capacity planning under area/power budgets.
``repro.workloads``
    Synthetic read-pair generation and the paper's six input sets.
``repro.wfasic``
    The accelerator model: Extractor, Aligner (Extend/Compute parallel
    sections), Collectors, banked RAMs, byte-exact memory formats, the
    CPU-side backtrace, and the ASIC area/frequency model.
``repro.soc``
    The RISC-V SoC substrate: main memory, AXI buses, DMA, MMIO register
    file, the Sargantana CPU cost model, and a Linux-driver-style API.
``repro.metrics``
    GCUPS and speedup accounting.
``repro.verify``
    Differential verification (the LEC/GLS analog) and fault injection.
``repro.reporting``
    Paper-style tables for benches and EXPERIMENTS.md.
"""

__version__ = "1.0.0"
