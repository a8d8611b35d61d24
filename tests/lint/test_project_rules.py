"""Whole-program rule fixtures (W009, W011–W014).

Each rule gets a positive (fires), a negative (blessed pattern passes),
and a suppressed fixture.  Trees are shaped like the real package so
async-root anchoring and scheduler detection are exercised.  Tests select the rule under test so fixture noise from
sibling rules cannot leak in.
"""


def _rules(result):
    return sorted(f.rule_id for f in result.reported)


#: A scheduler module every serve fixture shares: its async methods are
#: both the W009 reachability surface and the W011 re-entry surface.
SCHEDULER = """\
class MicroBatcher:
    async def submit(self, request):
        return request

    async def drain(self):
        return None
"""

class TestW009BlockingCallInAsync:
    def test_blocking_call_in_transitive_helper_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/serve/server.py": """\
                from repro.engine.engine import warm_up

                async def handle(request):
                    return warm_up(request)
                """,
                "src/repro/engine/engine.py": """\
                import time

                def warm_up(request):
                    time.sleep(0.1)
                    return request
                """,
            },
            select={"W009"},
        )
        assert _rules(result) == ["W009"]
        finding = result.reported[0]
        assert finding.path == "src/repro/engine/engine.py"
        assert "time.sleep" in finding.message
        assert "reachable from the event loop" in finding.message

    def test_path_write_text_in_async_def_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/cli.py": """\
                from pathlib import Path

                async def serve_session(args):
                    Path(args.ready_file).write_text("ready")
                """
            },
            select={"W009"},
        )
        assert _rules(result) == ["W009"]
        assert "write_text" in result.reported[0].message

    def test_run_in_executor_dispatch_passes(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/serve/server.py": """\
                import asyncio

                from repro.engine.engine import align_batch

                async def handle(pairs):
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(
                        None, align_batch, pairs
                    )
                """,
                "src/repro/engine/engine.py": """\
                import time

                def align_batch(pairs):
                    time.sleep(0.1)
                    return pairs
                """,
            },
            select={"W009"},
        )
        assert result.reported == []

    def test_blocking_outside_serve_reachability_passes(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/engine.py": """\
                import time

                def align_batch(pairs):
                    time.sleep(0.1)
                    return pairs
                """
            },
            select={"W009"},
        )
        assert result.reported == []

    def test_suppressed_with_justification(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/serve/server.py": """\
                async def handle(path):
                    # wfalint: disable=W009 — startup-only read, loop idle
                    return open(path)
                """
            },
            select={"W009"},
        )
        assert result.reported == []
        assert _rules_suppressed(result) == ["W009"]


def _rules_suppressed(result):
    return sorted(f.rule_id for f in result.suppressed)


class TestW011AwaitUnderLock:
    def test_scheduler_reentry_under_lock_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/serve/scheduler.py": SCHEDULER,
                "src/repro/serve/server.py": """\
                import asyncio

                from .scheduler import MicroBatcher

                class AlignmentServer:
                    def __init__(self):
                        self.batcher = MicroBatcher()
                        self._lock = asyncio.Lock()

                    async def handle(self, request):
                        async with self._lock:
                            return await self.batcher.submit(request)
                """,
            },
            select={"W011"},
        )
        assert _rules(result) == ["W011"]
        assert "self._lock" in result.reported[0].message
        assert "re-enters the scheduler" in result.reported[0].message

    def test_closure_acquiring_outer_lock_flagged(self, lint_tree):
        # The serve idiom: the lock is bound in the connection handler
        # and acquired inside a closure — lock recognition is file-wide.
        result = lint_tree(
            {
                "src/repro/serve/scheduler.py": SCHEDULER,
                "src/repro/serve/server.py": """\
                import asyncio

                from .scheduler import MicroBatcher

                async def handle(batcher, request):
                    write_lock = asyncio.Lock()

                    async def relay(batcher: MicroBatcher, item):
                        async with write_lock:
                            return await batcher.submit(item)

                    return await relay(batcher, request)
                """,
            },
            select={"W011"},
        )
        assert _rules(result) == ["W011"]
        assert "write_lock" in result.reported[0].message

    def test_awaits_outside_lock_and_unresolved_drain_pass(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/serve/scheduler.py": SCHEDULER,
                "src/repro/serve/server.py": """\
                import asyncio

                from .scheduler import MicroBatcher

                async def handle(batcher: MicroBatcher, writer, request):
                    response = await batcher.submit(request)
                    write_lock = asyncio.Lock()
                    async with write_lock:
                        writer.write(response)
                        await writer.drain()
                    return response
                """,
            },
            select={"W011"},
        )
        assert result.reported == []

    def test_suppressed_with_justification(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/serve/scheduler.py": SCHEDULER,
                "src/repro/serve/server.py": """\
                import asyncio

                from .scheduler import MicroBatcher

                async def handle(batcher: MicroBatcher, request):
                    lock = asyncio.Lock()
                    async with lock:
                        # wfalint: disable=W011 — single-waiter lock
                        return await batcher.submit(request)
                """,
            },
            select={"W011"},
        )
        assert result.reported == []
        assert _rules_suppressed(result) == ["W011"]


#: Minimal docs + vocabulary + tracer trio for W012 fixtures.
OBS_DOCS = """\
# Observability

| Metric | Meaning |
| --- | --- |
| `engine_pairs_total` | Pairs aligned. |
| `engine_stage_seconds_total` | Stage time. |

| Event name | Meaning |
| --- | --- |
| `batch` | One batch. |
| `chunk (N pairs)` | One chunk. |
| `process_name` | Metadata. |
"""

TRACE = """\
class Tracer:
    def complete(self, name, track, start_us, end_us):
        pass

    def now_us(self):
        return 0.0

    def name_thread(self, name):
        pass


def get_tracer() -> "Tracer | None":
    return None
"""


class TestW012ArtifactConsistency:
    def test_undocumented_metric_and_span_flagged(self, lint_tree):
        result = lint_tree(
            {
                "docs/observability.md": OBS_DOCS,
                "src/repro/obs/vocabulary.py": """\
                METRIC_NAMES = frozenset({
                    "engine_pairs_total",
                    "engine_stage_seconds_total",
                    "engine_orphan_total",
                })
                LABEL_KEYS = frozenset({"backend", "stage"})
                """,
                "src/repro/obs/trace.py": TRACE,
                "src/repro/engine/engine.py": """\
                from repro.obs.trace import get_tracer

                def run(n):
                    tracer = get_tracer()
                    tracer.name_thread("engine")
                    start = tracer.now_us()
                    tracer.complete("batch", "engine", start, start)
                    tracer.complete(f"chunk ({n} pairs)", "engine", start, start)
                    tracer.complete("undocumented span", "engine", start, start)
                """,
            },
            select={"W012"},
        )
        assert _rules(result) == ["W012", "W012"]
        by_path = {f.path: f for f in result.reported}
        vocab = by_path["src/repro/obs/vocabulary.py"]
        assert "engine_orphan_total" in vocab.message
        span = by_path["src/repro/engine/engine.py"]
        assert "undocumented span" in span.message

    def test_documented_event_never_emitted_flagged(self, lint_tree):
        result = lint_tree(
            {
                "docs/observability.md": OBS_DOCS,
                "src/repro/obs/vocabulary.py": """\
                METRIC_NAMES = frozenset({
                    "engine_pairs_total",
                    "engine_stage_seconds_total",
                })
                LABEL_KEYS = frozenset({"backend", "stage"})
                """,
                "src/repro/obs/trace.py": TRACE,
                "src/repro/engine/engine.py": """\
                from repro.obs.trace import get_tracer

                def run(n):
                    tracer = get_tracer()
                    tracer.name_thread("engine")
                    start = tracer.now_us()
                    tracer.complete(f"chunk ({n} pairs)", "engine", start, start)
                """,
            },
            select={"W012"},
        )
        # `batch` is catalogued but never emitted; the f-string matches
        # `chunk (N pairs)` and name_thread covers `process_name`.
        assert _rules(result) == ["W012"]
        finding = result.reported[0]
        assert finding.path == "docs/observability.md"
        assert "`batch`" in finding.message

    def test_dangling_span_clock_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/obs/trace.py": TRACE,
                "src/repro/engine/engine.py": """\
                from repro.obs.trace import get_tracer

                def run():
                    tracer = get_tracer()
                    start = tracer.now_us()
                    return None
                """,
            },
            select={"W012"},
        )
        assert _rules(result) == ["W012"]
        assert "never completed" in result.reported[0].message

    def test_helper_param_names_and_clock_delegation_pass(self, lint_tree):
        result = lint_tree(
            {
                "docs/observability.md": OBS_DOCS,
                "src/repro/obs/vocabulary.py": """\
                METRIC_NAMES = frozenset({
                    "engine_pairs_total",
                    "engine_stage_seconds_total",
                })
                LABEL_KEYS = frozenset({"backend", "stage"})
                """,
                "src/repro/obs/trace.py": TRACE,
                "src/repro/engine/engine.py": """\
                from repro.obs.trace import get_tracer


                def _timed(tracer, name):
                    start = tracer.now_us()
                    tracer.complete(name, "engine", start, start)


                def publish(tracer, base_us):
                    pass


                def run(n):
                    tracer = get_tracer()
                    tracer.name_thread("engine")
                    _timed(tracer, "batch")
                    start = tracer.now_us()
                    tracer.complete(f"chunk ({n} pairs)", "x", start, start)
                    base_us = tracer.now_us()
                    publish(tracer, base_us)
                """,
            },
            select={"W012"},
        )
        assert result.reported == []

    def test_suppressed_with_justification(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/obs/trace.py": TRACE,
                "src/repro/engine/engine.py": """\
                from repro.obs.trace import get_tracer

                def run():
                    tracer = get_tracer()
                    # wfalint: disable=W012 — clock handed off via global
                    start = tracer.now_us()
                    return None
                """,
            },
            select={"W012"},
        )
        assert result.reported == []
        assert _rules_suppressed(result) == ["W012"]

    def test_tree_without_docs_skips_catalogue_checks(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/obs/trace.py": TRACE,
                "src/repro/engine/engine.py": """\
                from repro.obs.trace import get_tracer

                def run():
                    tracer = get_tracer()
                    start = tracer.now_us()
                    tracer.complete("anything goes", "engine", start, start)
                """,
            },
            select={"W012"},
        )
        assert result.reported == []


class TestW013TimeoutPropagation:
    def test_dropped_timeout_to_function_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/engine.py": """\
                from repro.engine.quarantine import run_quarantined

                def align(pairs, chunk_timeout):
                    return run_quarantined(pairs)
                """,
                "src/repro/engine/quarantine.py": """\
                def run_quarantined(payload, chunk_timeout=30.0):
                    return payload
                """,
            },
            select={"W013"},
        )
        assert _rules(result) == ["W013"]
        assert "chunk_timeout" in result.reported[0].message

    def test_dropped_timeout_to_config_dataclass_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/config.py": """\
                from dataclasses import dataclass

                @dataclass
                class EngineConfig:
                    chunk_timeout: float = 30.0
                    workers: int = 1
                """,
                "src/repro/engine/engine.py": """\
                from repro.engine.config import EngineConfig

                def align(pairs, chunk_timeout):
                    config = EngineConfig(workers=2)
                    return config
                """,
            },
            select={"W013"},
        )
        assert _rules(result) == ["W013"]
        assert "EngineConfig" in result.reported[0].message

    def test_forwarded_timeouts_pass(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/config.py": """\
                from dataclasses import dataclass

                @dataclass
                class EngineConfig:
                    chunk_timeout: float = 30.0
                """,
                "src/repro/engine/quarantine.py": """\
                def run_quarantined(payload, timeout=30.0):
                    return payload
                """,
                "src/repro/engine/engine.py": """\
                from repro.engine.config import EngineConfig
                from repro.engine.quarantine import run_quarantined

                def align(pairs, chunk_timeout, timeout):
                    config = EngineConfig(chunk_timeout=chunk_timeout)
                    run_quarantined(pairs, timeout)
                    return run_quarantined(pairs, timeout=timeout)
                """,
            },
            select={"W013"},
        )
        assert result.reported == []

    def test_kwargs_callee_and_opaque_forwarding_pass(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/quarantine.py": """\
                def run_quarantined(payload, timeout=30.0, **extra):
                    return payload

                def run_strict(payload, timeout=30.0):
                    return payload
                """,
                "src/repro/engine/engine.py": """\
                def align(pairs, timeout, **kwargs):
                    from repro.engine.quarantine import run_quarantined
                    return run_quarantined(pairs)

                def align_forwarding(pairs, timeout, kwargs):
                    from repro.engine.quarantine import run_strict
                    return run_strict(pairs, **kwargs)
                """,
            },
            select={"W013"},
        )
        assert result.reported == []

    def test_suppressed_with_justification(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/quarantine.py": """\
                def run_quarantined(payload, timeout=30.0):
                    return payload
                """,
                "src/repro/engine/engine.py": """\
                def align(pairs, timeout):
                    from repro.engine.quarantine import run_quarantined
                    # wfalint: disable=W013 — warm-up probe, no deadline
                    return run_quarantined(pairs)
                """,
            },
            select={"W013"},
        )
        assert result.reported == []
        assert _rules_suppressed(result) == ["W013"]


class TestW014DroppedTaskReference:
    def test_bare_statement_and_lambda_body_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/cli.py": """\
                import asyncio

                def install(loop, sig, server):
                    loop.add_signal_handler(
                        sig, lambda: loop.create_task(server.shutdown())
                    )

                async def spawn(loop, coro):
                    loop.create_task(coro)
                """
            },
            select={"W014"},
        )
        assert _rules(result) == ["W014", "W014"]

    def test_retained_reference_with_done_callback_passes(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/serve/server.py": """\
                async def handle(loop, coro):
                    tasks = set()
                    task = loop.create_task(coro)
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                """
            },
            select={"W014"},
        )
        assert result.reported == []

    def test_suppressed_with_justification(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/cli.py": """\
                async def spawn(loop, coro):
                    # wfalint: disable=W014 — loop outlives the task here
                    loop.create_task(coro)
                """
            },
            select={"W014"},
        )
        assert result.reported == []
        assert _rules_suppressed(result) == ["W014"]
