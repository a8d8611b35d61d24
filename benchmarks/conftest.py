"""Shared measurement machinery for the paper-reproduction benchmarks.

Every table/figure bench draws from one cached measurement per input set
(the accelerator and CPU flows are deterministic, so re-running them per
bench would only waste time).  Batch sizes are chosen so the whole bench
suite finishes in a few minutes; set ``REPRO_BENCH_PAIRS`` to scale all
sets up or down (the 10 kbp sets get max(1, PAIRS // 8) pairs).

Each bench prints its paper-style table (visible with ``pytest -s``) and
also appends it to ``benchmarks/results/benchmark_tables.txt`` so the
tables survive output capturing; EXPERIMENTS.md is written from that
file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.soc import Soc
from repro.wfasic import CpuBacktracer, WfasicConfig
from repro.workloads import input_set_names, make_input_set

RESULTS_DIR = Path(__file__).parent / "results"

#: Pairs per 100 bp / 1 kbp set (10 kbp sets use an eighth of this).
DEFAULT_PAIRS = int(os.environ.get("REPRO_BENCH_PAIRS", "16"))


def pairs_for(name: str) -> int:
    if name.startswith("10K"):
        return max(1, DEFAULT_PAIRS // 8)
    if name.startswith("1K"):
        return max(2, DEFAULT_PAIRS // 2)
    return DEFAULT_PAIRS


@dataclass
class SetMeasurement:
    """Everything the five experiments need about one input set."""

    name: str
    num_pairs: int
    max_read_len: int
    reading_cycles: int
    #: Per-pair alignment cycles, 1 Aligner x 64 PS, backtrace off.
    align_cycles_nbt: list[int]
    #: Batch makespan, 1 Aligner x 64 PS, backtrace off.
    accel_nbt_total: int
    #: Batch makespan + CPU backtrace, 1x64PS, backtrace on, no separation.
    accel_bt_nosep_total: int
    accel_bt_nosep_accel: int
    accel_bt_nosep_cpu: int
    #: Same accelerator batch, CPU backtrace with data separation.
    accel_bt_sep_total: int
    #: 2 Aligners x 32 PS, backtrace on, with separation.
    accel_bt_2x32_sep_total: int
    #: Software WFA on the Sargantana model.
    cpu_scalar_cycles: int
    cpu_vector_cycles: int
    #: SWG-equivalent DP cells of the whole batch (for GCUPS).
    swg_cells: int
    extras: dict = field(default_factory=dict)


def _measure(name: str) -> SetMeasurement:
    n = pairs_for(name)
    pairs = make_input_set(name, n)
    cells = sum(len(p.pattern) * len(p.text) for p in pairs)

    # -- no-backtrace accelerator flow (1 x 64 PS) -------------------------
    soc_n = Soc(WfasicConfig.paper_default(backtrace=False))
    acc_n = soc_n.run_accelerated(pairs, backtrace=False)
    assert all(acc_n.success.values()), f"{name}: unexpected failures"

    # -- CPU flows ----------------------------------------------------------
    cpu_scalar = soc_n.run_cpu(pairs, vector=False, backtrace=True)
    cpu_vector = soc_n.run_cpu(pairs, vector=True, backtrace=True)

    # -- backtrace-enabled flow, 1 x 64 PS ------------------------------------
    soc_b = Soc(WfasicConfig.paper_default(backtrace=True))
    acc_b = soc_b.run_accelerated(pairs, backtrace=True, separate=False)
    # Re-run only the CPU backtrace with data separation on the same
    # accelerator stream (the stream itself is identical for 1 Aligner).
    seqs = {p.pair_id: (p.pattern, p.text) for p in pairs}
    with soc_b.driver.result_stream() as stream:
        _, sep_work = CpuBacktracer(soc_b.config).process(stream, seqs, separate=True)
    sep_cpu = soc_b.cpu.backtrace_cycles(sep_work, num_alignments=n)
    accel_bt_sep_total = acc_b.accelerator_cycles + sep_cpu

    # -- backtrace-enabled flow, 2 x 32 PS, separation -------------------------
    soc_2 = Soc(WfasicConfig(num_aligners=2, parallel_sections=32, backtrace=True))
    acc_2 = soc_2.run_accelerated(pairs, backtrace=True, separate=True)

    return SetMeasurement(
        name=name,
        num_pairs=n,
        max_read_len=acc_n.batch.max_read_len,
        reading_cycles=acc_n.batch.reading_cycles_per_pair,
        align_cycles_nbt=list(acc_n.batch.alignment_cycles),
        accel_nbt_total=acc_n.total_cycles,
        accel_bt_nosep_total=acc_b.total_cycles,
        accel_bt_nosep_accel=acc_b.accelerator_cycles,
        accel_bt_nosep_cpu=acc_b.cpu_backtrace_cycles,
        accel_bt_sep_total=accel_bt_sep_total,
        accel_bt_2x32_sep_total=acc_2.total_cycles,
        cpu_scalar_cycles=cpu_scalar.cycles,
        cpu_vector_cycles=cpu_vector.cycles,
        swg_cells=cells,
        extras={
            "accel_bt_2x32_accel": acc_2.accelerator_cycles,
            "accel_bt_2x32_cpu": acc_2.cpu_backtrace_cycles,
            "bt_txns_per_pair": acc_b.batch.output.num_transactions // n,
        },
    )


@pytest.fixture(scope="session")
def measurements() -> dict[str, SetMeasurement]:
    """Lazy per-set measurement cache shared by all bench files."""

    cache: dict[str, SetMeasurement] = {}

    class Lazy(dict):
        def __missing__(self, key):
            if key not in input_set_names():
                raise KeyError(key)
            value = _measure(key)
            self[key] = value
            return value

    lazy = Lazy(cache)
    return lazy


BENCH_JSON = RESULTS_DIR / "BENCH_pr2.json"
BENCH_JSON_PR4 = RESULTS_DIR / "BENCH_pr4.json"
BENCH_JSON_PR7 = RESULTS_DIR / "BENCH_pr7.json"
BENCH_JSON_PR8 = RESULTS_DIR / "BENCH_pr8.json"
BENCH_JSON_PR9 = RESULTS_DIR / "BENCH_pr9.json"


def _bench_recorder(path: Path):
    """A section recorder for one ``BENCH_*.json`` file.

    Each bench records a named section; sections from earlier runs are
    preserved so the fast and slow suites can fill the file piecemeal.
    The file lives under ``benchmarks/results/``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}

    def _record(section: str, payload: dict) -> None:
        data[section] = payload
        doc = json.dumps(data, indent=2, sort_keys=True) + "\n"
        path.write_text(doc)

    return _record


@pytest.fixture(scope="session")
def bench_json():
    """Merge machine-readable results into ``BENCH_pr2.json``."""
    return _bench_recorder(BENCH_JSON)


@pytest.fixture(scope="session")
def bench_json_pr4():
    """Merge machine-readable results into ``BENCH_pr4.json``."""
    return _bench_recorder(BENCH_JSON_PR4)


@pytest.fixture(scope="session")
def bench_json_pr7():
    """Merge machine-readable results into ``BENCH_pr7.json``."""
    return _bench_recorder(BENCH_JSON_PR7)


@pytest.fixture(scope="session")
def bench_json_pr8():
    """Merge machine-readable results into ``BENCH_pr8.json``."""
    return _bench_recorder(BENCH_JSON_PR8)


@pytest.fixture(scope="session")
def bench_json_pr9():
    """Merge machine-readable results into ``BENCH_pr9.json``."""
    return _bench_recorder(BENCH_JSON_PR9)


@pytest.fixture(scope="session")
def report_table():
    """Print a table and persist it to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "benchmark_tables.txt"
    # Truncate once per session.
    path.write_text("")

    def _report(text: str) -> None:
        print("\n" + text)
        with open(path, "a") as fh:
            fh.write(text + "\n\n")

    return _report
