"""``paper_sim``: the paper's six input sets through both Fig. 9 flows.

One round runs every set through ``Soc.run_accelerated(backtrace=True)``
(the WFAsic co-design flow: driver, cycle simulator, CPU backtrace) and
``Soc.run_cpu`` (the software WFA on the Sargantana cost model).  The
host seconds per round are the reproduction's own cost; the simulated
cycle counts are reproduction results and must repeat exactly.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median
from typing import Any

from common import Spans, cigar_error, nearest_rank, probe_setup, vm_hwm_mb

#: Pairs per input set in one round.  The 10 kbp pairs dominate host
#: time and their work varies with the errors drawn, so they get two
#: each (one moved pairs/s by ~6 % from seed to seed).
ROUND = {
    "100-5%": 8,
    "100-10%": 8,
    "1K-5%": 2,
    "1K-10%": 2,
    "10K-5%": 2,
    "10K-10%": 2,
}
#: Sets small enough for the SWG oracle at set-up (~1.5 s per 1 kbp
#: pair); the 10 kbp pairs (~150 s each) are checked against the
#: software WFA of the CPU flow instead.
SWG_SETS = ("100-5%", "100-10%", "1K-5%", "1K-10%")
#: Cycle counts of a fixed, seed-independent input (two pairs of each
#: short set, ``seed_offset=0``), recorded from the simulator.
EXPECTED_CYCLES = Path(__file__).resolve().parent / "expected_cycles.json"


def make_round(seed: int) -> dict[str, list]:
    from repro.workloads import make_input_set

    return {name: make_input_set(name, n, seed_offset=seed) for name, n in ROUND.items()}


def pinned_cycles() -> dict[str, list[int]]:
    """(accelerator, CPU) cycles of the pinned input, per set."""
    from repro.soc import Soc
    from repro.wfasic import WfasicConfig
    from repro.workloads import make_input_set

    soc = Soc(WfasicConfig.paper_default(backtrace=True))
    out = {}
    for name in SWG_SETS:
        pairs = make_input_set(name, 2)
        acc = soc.run_accelerated(pairs, backtrace=True)
        out[name] = [acc.accelerator_cycles, soc.run_cpu(pairs).cycles]
    return out


def run_round(soc: Any, sets: dict[str, list]) -> tuple[float, dict]:
    """Wall seconds of one round and what it produced."""
    produced = {}
    start = time.perf_counter()
    for name, pairs in sets.items():
        acc = soc.run_accelerated(pairs, backtrace=True)
        cpu = soc.run_cpu(pairs)
        produced[name] = (acc, cpu)
    elapsed = time.perf_counter() - start
    outputs = {
        name: {
            "accel_cycles": acc.accelerator_cycles,
            "cpu_cycles": cpu.cycles,
            "scores": [acc.scores[p.pair_id] for p in sets[name]],
            "success": [acc.success[p.pair_id] for p in sets[name]],
            "cigars": [
                None if acc.cigars[p.pair_id] is None
                else acc.cigars[p.pair_id].compact()
                for p in sets[name]
            ],
            "cpu_scores": [cpu.scores[p.pair_id] for p in sets[name]],
        }
        for name, (acc, cpu) in produced.items()
    }
    return elapsed, outputs


def run_window(soc: Any, sets: dict[str, list], budget: float) -> tuple[list[float], list[dict]]:
    seconds: list[float] = []
    outputs: list[dict] = []
    while not seconds or sum(seconds) + median(seconds) / 2 <= budget:
        elapsed, out = run_round(soc, sets)
        seconds.append(elapsed)
        outputs.append(out)
    return seconds, outputs


def check(sets: dict[str, list], outputs: list[dict]) -> tuple[int, int, list[str]]:
    from repro.align.swg import swg_score

    problems: list[str] = []
    pinned = json.loads(EXPECTED_CYCLES.read_text(encoding="ascii"))
    if pinned_cycles() != pinned:
        problems.append("cycle counts of the pinned input changed")
    first = outputs[0]
    bad_pairs = 0
    for name, pairs in sets.items():
        out = first[name]
        for i, pair in enumerate(pairs):
            score = out["scores"][i]
            if name in SWG_SETS:
                truth = swg_score(pair.pattern, pair.text)
            else:
                truth = out["cpu_scores"][i]
            why = None
            if not out["success"][i]:
                why = "accelerator flagged the pair unsupported"
            elif score != truth or out["cpu_scores"][i] != truth:
                why = f"scores accel={score} cpu={out['cpu_scores'][i]}, oracle {truth}"
            else:
                why = cigar_error(pair.pattern, pair.text, score, out["cigars"][i])
            if why:
                bad_pairs += 1
                problems.append(f"{name} pair {i}: {why}")
    per_round = sum(len(p) for p in sets.values())
    attempted = failed = 0
    for out in outputs:
        attempted += per_round
        if out != first:
            problems.append("a round's scores, CIGARs or cycle counts differ from the first")
            failed += per_round
        else:
            failed += bad_pairs
    return attempted, failed, problems


def run(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    from repro.soc import Soc
    from repro.wfasic import WfasicConfig

    sets = make_round(seed)
    metrics: dict[str, Any] = {}
    if not trace:
        metrics["setup_s"] = median(probe_setup("paper_sim", tmp))
    soc = Soc(WfasicConfig.paper_default(backtrace=True))
    run_round(soc, {"100-5%": sets["100-5%"]})  # warm-up
    per_round = sum(len(p) for p in sets.values())
    if not trace:
        secs, outputs = run_window(soc, sets, seconds)
        metrics["pairs_per_s"] = 2 * per_round / median(secs)
        metrics["peak_rss_mb"] = vm_hwm_mb()
    else:
        plain, plain_out = run_window(soc, sets, seconds / 2)
        spans = layer_spans()
        try:
            secs, traced_out = run_window(soc, sets, seconds / 2)
        finally:
            spans.restore()
        outputs = plain_out + traced_out
        total = sum(secs)
        metrics.update(
            {
                "total_s": total,
                "latency_p50_ms": median(secs) * 1e3,
                "latency_p99_ms": nearest_rank(secs, 0.99) * 1e3,
                "wfasic.simulate_s": spans.total["wfasic.simulate"],
                "soc.cpu_backtrace_s": spans.total["soc.cpu_backtrace"],
                "soc.run_cpu_s": spans.total["soc.run_cpu"],
                "obs.publish_s": spans.total["obs.publish"],
                "wfasic.accel_cycles": sum(
                    o["accel_cycles"] for o in outputs[0].values()
                ),
                "soc.cpu_cycles": sum(o["cpu_cycles"] for o in outputs[0].values()),
                "trace_overhead_frac": median(secs) / median(plain) - 1.0,
            }
        )
        metrics["layer_self"] = {
            layer: spans.layer_self(layer) for layer in ("soc", "wfasic", "obs")
        }
    attempted, failed, problems = check(sets, outputs)
    metrics["slo_frac"] = (attempted - failed) / attempted
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "pairs": [p for pairs in sets.values() for p in pairs],
        "detail": {"round_seconds": secs, "round": ROUND},
    }


def layer_spans() -> Spans:
    """Spans around the public calls that make up one flow."""
    import repro.soc.cpu
    import repro.soc.soc
    from repro.soc import Soc
    from repro.soc.driver import WfasicDriver
    from repro.wfasic.backtrace_cpu import CpuBacktracer

    spans = Spans()
    spans.wrap(Soc, "run_accelerated", "soc.run_accelerated")
    spans.wrap(Soc, "run_cpu", "soc.run_cpu")
    spans.wrap(WfasicDriver, "run", "wfasic.simulate")
    spans.wrap(CpuBacktracer, "process", "soc.cpu_backtrace")
    spans.wrap(repro.soc.soc, "publish_accelerator_batch", "obs.publish")
    spans.wrap(repro.soc.cpu, "publish_cpu_cycles", "obs.publish")
    return spans
