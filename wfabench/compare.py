"""Compare two result sets written by ``run.py --out``.

Usage::

    python3 wfabench/compare.py A.jsonl B.jsonl

One row per workload and metric: each side's first quartile, median and
third quartile over its runs, the change of the median, and a verdict.
A metric is ``unresolved`` when either side's run-to-run spread (the
distance between its quartiles, as a share of its median) exceeds the
metric's bound in ``BENCHMARK.json``, unless every run of B is better
than every run of A.  Otherwise it is ``worse`` when B's median is worse
than A's by more than the bound, and ``same`` when it is not.  Per-layer
metrics carry no bound and get no verdict.  Runs whose fingerprints
differ in host, Python or NumPy are listed first: their numbers are not
comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import ROOT


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["detail"]["workload"], record["detail"]["trace"])].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def host_key(record: dict) -> tuple:
    fp = record["detail"]["fingerprint"]
    return fp["cpu_model"], fp["nproc"], fp["python"], fp["numpy"]


def verdict(a: list[float], b: list[float], bound: float, higher: bool) -> str:
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if higher else -1.0
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)
    )
    if spread > bound:
        if all(sign * (x - y) > 0 for x in b for y in a):
            return "better (every run)"
        return "unresolved"
    change = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    return "worse" if change < -bound else "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    side_a, side_b = load(Path(argv[0])), load(Path(argv[1]))
    hosts = {host_key(r) for runs in (side_a, side_b) for rs in runs.values() for r in rs}
    if len(hosts) > 1:
        print(f"warning: runs come from {len(hosts)} different hosts: {sorted(hosts)}")
    header = (
        f"{'workload':<16} {'metric':<24} {'A q1':>10} {'A med':>10} {'A q3':>10}"
        f" {'B q1':>10} {'B med':>10} {'B q3':>10} {'change':>8}  verdict"
    )
    print(header)
    print("-" * len(header))
    for key in sorted(set(side_a) & set(side_b)):
        workload, trace = key
        runs_a, runs_b = side_a[key], side_b[key]
        for name in runs_a[0]["result"]["metrics"]:
            a = [r["result"]["metrics"][name]["value"] for r in runs_a]
            b = [r["result"]["metrics"][name]["value"] for r in runs_b]
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            spec_m = metrics[name]
            judged = (
                verdict(a, b, spec_m["bound"], spec_m["better"] == "higher")
                if "bound" in spec_m
                else "-"
            )
            print(
                f"{workload:<16} {name:<24} {qa[0]:>10.4g} {qa[1]:>10.4g} {qa[2]:>10.4g}"
                f" {qb[0]:>10.4g} {qb[1]:>10.4g} {qb[2]:>10.4g} {change:>+8.1%}  {judged}"
            )
        failed = sum(r["result"]["failed"] for r in runs_a + runs_b)
        print(
            f"{workload:<16} {'runs (A, B), failed ops':<24} {len(runs_a):>10} "
            f"{'':>10} {'':>10} {len(runs_b):>10} {'':>10} {'':>10} {'':>8}  {failed}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
