"""Run one benchmark workload and print its result as the last line.

Usage (from the root of a checkout)::

    python3 wfabench/run.py --workload reads_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics instead.  The line before the result holds the run's detail:
fingerprint (git revision, dataset digest, host, load and steal time),
sample counts and any correctness problems.  ``--out FILE`` also
appends ``{detail, result}`` to a JSON-lines file for ``compare.py``.
Exit status is 0 when every correctness gate passed, 1 when one failed
and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from common import ROOT, SRC, TMP_ROOT, HostProbe, adopt_orphans, reap_children

BENCHMARK = ROOT / "BENCHMARK.json"
LAYERS = ("workloads", "engine", "align", "serve", "soc", "wfasic", "obs")


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    if workload in ("reads_batch", "longread_banded"):
        import batch_paths

        return batch_paths.run(workload, seed, seconds, trace, tmp)
    if workload == "served_mix":
        import served

        return served.run(seed, seconds, trace, tmp)
    import sim

    return sim.run(seed, seconds, trace, tmp)


def finish_layers(metrics: dict) -> None:
    """Fold the layer self times into ``<layer>.self_s`` and the rest.

    The self times of every layer plus ``unaccounted_s`` add up to
    ``total_s``, the traced end-to-end time.
    """
    selfs = metrics.pop("layer_self")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    metrics.setdefault("unaccounted_s", metrics["total_s"] - sum(selfs.values()))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the run to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    adopt_orphans()
    try:
        return run_workload(args, spec)
    finally:
        reap_children()


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    host = HostProbe()
    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_ROOT.is_dir() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    from repro.obs.manifest import dataset_fingerprint

    measured = run["metrics"]
    if args.trace:
        finish_layers(measured)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # Layers a workload never enters report 0 (e.g. the simulator on the
    # engine workloads), so every run carries the same metric set.
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": host.fingerprint(dataset_fingerprint(run["pairs"])),
        **run["detail"],
        "problems": run["problems"],
    }
    correct = not run["problems"] and run["failed"] == 0
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"detail": detail, "result": result}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
