"""``served_mix``: open-loop Poisson traffic against ``repro-wfasic serve``.

The server runs as its own process with the CLI defaults plus
``--backtrace``.  One asyncio generator sends 150 bp requests over two
connections at a fixed Poisson rate; about a quarter repeat a 64-pair
hot set, so the engine's cache and coalescing see real reuse.  Every
latency is timed from the request's *due* time, so a stalled generator
or server charges the wait to every request queued behind the stall.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

from common import (
    ROOT,
    SETUP_PROBES,
    cigar_error,
    nearest_rank,
    python_env,
    reference_scores,
    vm_hwm_mb,
)

RATE_PER_S = 100.0
CONNECTIONS = 2
HOT_PAIRS = 64
HOT_SHARE = 0.25
#: Requests due in the first second warm the server and are checked but
#: not timed.
WARMUP_S = 1.0
#: The latency limit of ``slo_frac``.
SLO_MS = 50.0
#: A run whose generator sent its p99 request later than this share of
#: the latency limit is flagged ``gen_behind``: its latencies include
#: the benchmark's own lateness.
GEN_LAG_LIMIT_SHARE = 0.25
#: Seconds to wait for stragglers after the last request is sent.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class Request:
    due: float
    pattern: str
    text: str


def make_schedule(seed: int, seconds: float) -> list[Request]:
    import numpy as np

    from repro.workloads import PairGenerator

    rng = np.random.default_rng(seed)
    gen = PairGenerator(
        length=150, error_rate=0.05, seed=seed + 1, max_text_length=150
    )
    hot = [(p.pattern, p.text) for p in gen.batch(HOT_PAIRS)]
    schedule = []
    due = 0.0
    while True:
        due += float(rng.exponential(1.0 / RATE_PER_S))
        if due >= WARMUP_S + seconds:
            return schedule
        if rng.random() < HOT_SHARE:
            pattern, text = hot[int(rng.integers(HOT_PAIRS))]
        else:
            pair = gen.pair()
            pattern, text = pair.pattern, pair.text
        schedule.append(Request(due, pattern, text))


class Server:
    """One ``repro-wfasic serve`` subprocess, up once the ready-file is."""

    def __init__(self, tmp: Path, tag: str, extra: tuple[str, ...] = ()) -> None:
        self.ready = tmp / f"ready-{tag}"
        self.log = open(tmp / f"serve-{tag}.log", "w", encoding="ascii")
        argv = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--ready-file", str(self.ready), "--backtrace", *extra,
        ]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=python_env(), cwd=ROOT, stdout=self.log, stderr=self.log
        )
        try:
            self.host, self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        #: Seconds from spawn to the ready-file: the served set-up time.
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode} before ready")
            try:
                text = self.ready.read_text(encoding="ascii")
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                host, port = text.split()
                return host, int(port)
            time.sleep(0.002)
        raise RuntimeError("server not ready within 60 s")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.log.close()


@dataclass
class Session:
    """What the generator saw: one slot per scheduled request."""

    start: float
    sent: list[float]
    answers: list[list[dict]]
    received: list[float]
    stats: dict = field(default_factory=dict)


async def _drive(host: str, port: int, schedule: list[Request]) -> Session:
    conns = [await asyncio.open_connection(host, port) for _ in range(CONNECTIONS)]
    n = len(schedule)
    session = Session(0.0, [0.0] * n, [[] for _ in range(n)], [0.0] * n)
    remaining = n
    all_answered = asyncio.Event()
    stats_answer: asyncio.Future[dict] = asyncio.get_running_loop().create_future()

    async def read_loop(reader: asyncio.StreamReader) -> None:
        nonlocal remaining
        while line := await reader.readline():
            now = time.perf_counter()
            doc = json.loads(line)
            rid = doc.get("id")
            if rid == "stats":
                stats_answer.set_result(doc)
                continue
            if not session.answers[rid]:
                session.received[rid] = now
                remaining -= 1
                if remaining == 0:
                    all_answered.set()
            session.answers[rid].append(doc)

    readers = [asyncio.create_task(read_loop(r)) for r, _ in conns]
    session.start = time.perf_counter() + 0.05
    for i, req in enumerate(schedule):
        delay = session.start + req.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = conns[i % CONNECTIONS][1]
        writer.write(
            (json.dumps({"id": i, "pattern": req.pattern, "text": req.text}) + "\n").encode()
        )
        session.sent[i] = time.perf_counter()
        await writer.drain()
    try:
        await asyncio.wait_for(all_answered.wait(), DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    conns[0][1].write(b'{"type": "stats", "id": "stats"}\n')
    await conns[0][1].drain()
    session.stats = await asyncio.wait_for(stats_answer, DRAIN_TIMEOUT_S)
    for _, writer in conns:
        writer.close()
        await writer.wait_closed()
    for task in readers:
        await task
    return session


def run_session(
    tmp: Path, tag: str, schedule: list[Request], extra: tuple[str, ...] = ()
) -> tuple[Session, float]:
    """Drive one fresh server; the session and the server's peak RSS (MB)."""
    server = Server(tmp, tag, extra)
    try:
        session = asyncio.run(_drive(server.host, server.port, schedule))
        rss = vm_hwm_mb(server.proc.pid)
    finally:
        server.stop()
    return session, rss


def probe_setup(tmp: Path) -> list[float]:
    """Spawn-to-ready seconds of fresh servers."""
    out = []
    for i in range(SETUP_PROBES):
        server = Server(tmp, f"probe{i}")
        server.stop()
        out.append(server.setup_s)
    return out


def latencies(schedule: list[Request], session: Session) -> dict[str, Any]:
    """End-to-end figures over the requests due after the warm-up."""
    timed = [i for i, r in enumerate(schedule) if r.due >= WARMUP_S]
    ok = [i for i in timed if session.answers[i] and session.answers[i][0]["ok"]]
    lat_ms = {
        i: (session.received[i] - session.start - schedule[i].due) * 1e3 for i in ok
    }
    lag_ms = [
        (session.sent[i] - session.start - schedule[i].due) * 1e3 for i in timed
    ]
    window_s = schedule[-1].due - WARMUP_S
    values = list(lat_ms.values())
    return {
        "pairs_per_s": len(ok) / window_s,
        "latency_p50_ms": median(values),
        "latency_p99_ms": nearest_rank(values, 0.99),
        "slo_frac": sum(1 for v in values if v <= SLO_MS) / len(timed),
        "samples": len(values),
        "gen_lag_ms_p99": nearest_rank(lag_ms, 0.99),
    }


def check(schedule: list[Request], sessions: list[Session]) -> tuple[int, int, list[str]]:
    """Exactly one ``ok`` answer per request, with the reference score."""
    unique = list(dict.fromkeys((r.pattern, r.text) for r in schedule))
    reference = dict(zip(unique, reference_scores(unique)))
    problems: list[str] = []
    attempted = failed = 0
    for session in sessions:
        for i, req in enumerate(schedule):
            attempted += 1
            answers = session.answers[i]
            why = None
            if len(answers) != 1:
                why = f"{len(answers)} answers"
            elif not answers[0]["ok"]:
                why = f"error {answers[0]['error_kind']}"
            elif answers[0]["score"] != reference[(req.pattern, req.text)]:
                why = f"score {answers[0]['score']}, reference {reference[(req.pattern, req.text)]}"
            else:
                why = cigar_error(req.pattern, req.text, answers[0]["score"], answers[0]["cigar"])
            if why:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"request {i}: {why}")
    return attempted, failed, problems


def layer_metrics(
    schedule: list[Request], session: Session, trace_path: Path
) -> dict[str, Any]:
    """Where the traced session's request time went.

    ``total_s`` is the summed latency of every answered request.  Each
    server batch charges its duration once per request it carried:
    chunk (kernel) time to ``align``, the rest of the engine's batch span
    to ``engine``, and the rest of the ``serve:batch`` span to ``serve``.
    What remains is generator lateness, queue and batch-window wait,
    and the socket round trip.
    """
    events = json.loads(trace_path.read_text(encoding="ascii"))["traceEvents"]

    def spans(name: str | None, cat: str) -> list[dict]:
        return sorted(
            (e for e in events if e.get("ph") == "X" and e["cat"] == cat
             and (name is None or e["name"] == name)),
            key=lambda e: e["ts"],
        )

    def inside(outer: dict, inner: list[dict]) -> list[dict]:
        end = outer["ts"] + outer["dur"]
        return [e for e in inner if outer["ts"] <= e["ts"] <= end]

    serve_batches = spans("serve:batch", "serve")
    engine_batches = spans("batch", "engine")
    chunks = spans(None, "engine:chunk")
    serve_self = engine_self = align_self = 0.0
    engine_sum = 0.0
    for sb in serve_batches:
        eng = inside(sb, engine_batches)
        eng_us = sum(e["dur"] for e in eng)
        kern_us = sum(c["dur"] for e in eng for c in inside(e, chunks))
        engine_sum += eng_us
        requests = sb["args"]["requests"]
        serve_self += requests * (sb["dur"] - eng_us) / 1e6
        engine_self += sb["args"]["dispatched"] * (eng_us - kern_us) / 1e6
        align_self += sb["args"]["dispatched"] * kern_us / 1e6
    total = sum(
        session.received[i] - session.start - r.due
        for i, r in enumerate(schedule)
        if session.answers[i]
    )
    report = session.stats["report"]
    snapshot = session.stats["metrics"]
    profile = report["profile"]
    busy = sum(
        profile.get(s, {}).get("seconds", 0.0)
        for s in ("resolve", "dispatch", "execute", "gather")
    )
    size = snapshot["serve_batch_size"]["series"][0]["value"]
    batch_ms = [sb["dur"] / 1e3 for sb in serve_batches]
    return {
        "total_s": total,
        "unaccounted_s": total - serve_self - engine_self - align_self,
        "layer_self": {"serve": serve_self, "engine": engine_self, "align": align_self},
        "engine.align_batch_s": engine_sum / 1e6,
        **{
            f"engine.{s}_s": profile.get(s, {}).get("seconds", 0.0)
            for s in ("resolve", "dispatch", "execute", "ipc", "gather")
        },
        "engine.unaccounted_s": engine_sum / 1e6 - busy,
        "engine.cache_hit_frac": report["cache_hits"] / report["num_pairs"],
        "engine.coalesced_frac": report["coalesced"] / report["num_pairs"],
        "engine.worker_busy_frac": report["worker_utilisation"],
        "align.kernel_s": sum(report["workers_busy_seconds"].values()),
        "serve.batches": snapshot["serve_batches_total"]["series"][0]["value"],
        "serve.batch_size_mean": size["sum"] / size["count"],
        "serve.batch_ms_p50": median(batch_ms),
        "serve.engine_busy_frac": busy / report["elapsed_seconds"],
    }


def run(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    metrics: dict[str, Any] = {}
    if not trace:
        setup = probe_setup(tmp)
        schedule = make_schedule(seed, seconds)
        session, rss = run_session(tmp, "run", schedule)
        sessions = [session]
        figures = latencies(schedule, session)
        metrics["pairs_per_s"] = figures["pairs_per_s"]
        metrics["setup_s"] = median(setup)
        metrics["peak_rss_mb"] = rss
        metrics["slo_frac"] = figures["slo_frac"]
    else:
        schedule = make_schedule(seed, seconds / 2)
        plain, _ = run_session(tmp, "plain", schedule)
        trace_path = tmp / "serve-trace.json"
        traced, _ = run_session(tmp, "traced", schedule, ("--trace", str(trace_path)))
        sessions = [plain, traced]
        figures = latencies(schedule, traced)
        metrics.update(layer_metrics(schedule, traced, trace_path))
        metrics["latency_p50_ms"] = figures["latency_p50_ms"]
        metrics["latency_p99_ms"] = figures["latency_p99_ms"]
        metrics["trace_overhead_frac"] = (
            figures["latency_p50_ms"] / latencies(schedule, plain)["latency_p50_ms"] - 1.0
        )
    lag_p99 = figures["gen_lag_ms_p99"]
    metrics["serve.gen_lag_ms_p99"] = lag_p99
    attempted, failed, problems = check(schedule, sessions)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "pairs": [(r.pattern, r.text) for r in schedule],
        "detail": {
            "rate_per_s": RATE_PER_S,
            "latency_samples": figures["samples"],
            "latency_p50_ms": figures["latency_p50_ms"],
            "latency_p99_ms": figures["latency_p99_ms"],
            "slo_ms": SLO_MS,
            "gen_lag_ms_p99": lag_p99,
            "gen_behind": lag_p99 > GEN_LAG_LIMIT_SHARE * SLO_MS,
        },
    }
