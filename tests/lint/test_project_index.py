"""Phase-1 index tests: module naming, imports, call graph, reachability.

These exercise :mod:`tools.wfalint.project` directly (no rules), over
fixture trees shaped like the real package.
"""

import textwrap
from pathlib import Path

import pytest

from tools.wfalint.core import FileContext
from tools.wfalint.project import ProjectIndex, module_name_for


class TestModuleNaming:
    @pytest.mark.parametrize(
        "relpath, expected",
        [
            ("src/repro/serve/server.py", "repro.serve.server"),
            ("src/repro/__init__.py", "repro"),
            ("tools/wfalint/core.py", "tools.wfalint.core"),
            ("tools/wfalint/__init__.py", "tools.wfalint"),
            ("benchmarks/bench_engine.py", "benchmarks.bench_engine"),
        ],
    )
    def test_relpath_to_dotted_name(self, relpath, expected):
        assert module_name_for(relpath) == expected


def _build(tmp_path: Path, files: dict) -> ProjectIndex:
    contexts = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        contexts.append(FileContext.load(path, tmp_path))
    return ProjectIndex.build(contexts, tmp_path)


class TestImportsAndSymbols:
    def test_absolute_and_relative_imports_resolve(self, tmp_path):
        index = _build(
            tmp_path,
            {
                "src/repro/align/packing.py": """\
                class PackCache:
                    def clear(self):
                        pass
                """,
                "src/repro/engine/engine.py": """\
                import time
                from ..align.packing import PackCache
                from repro.align import packing
                """,
            },
        )
        imports = index.modules["repro.engine.engine"].imports
        assert imports["time"] == "time"
        assert imports["PackCache"] == "repro.align.packing.PackCache"
        assert imports["packing"] == "repro.align.packing"
        assert "repro.align.packing.PackCache" in index.classes

    def test_methods_fields_and_attr_types_collected(self, tmp_path):
        index = _build(
            tmp_path,
            {
                "src/repro/serve/scheduler.py": """\
                class MicroBatcher:
                    async def submit(self, request):
                        return request
                """,
                "src/repro/serve/server.py": """\
                import asyncio

                from .scheduler import MicroBatcher

                class AlignmentServer:
                    def __init__(self):
                        self.batcher = MicroBatcher()
                        self._lock = asyncio.Lock()

                    def close(self):
                        pass
                """,
            },
        )
        server = index.classes["repro.serve.server.AlignmentServer"]
        assert {"__init__", "close"} <= server.methods
        assert server.attr_types["batcher"] == "MicroBatcher"
        assert server.attr_types["_lock"] == "asyncio.Lock"


class TestCallResolution:
    def test_self_and_attribute_chains_resolve(self, tmp_path):
        index = _build(
            tmp_path,
            {
                "src/repro/serve/scheduler.py": """\
                class MicroBatcher:
                    async def submit(self, request):
                        return request
                """,
                "src/repro/serve/server.py": """\
                from .scheduler import MicroBatcher

                class AlignmentServer:
                    def __init__(self):
                        self.batcher = MicroBatcher()

                    async def handle(self, request):
                        self.log(request)
                        return await self.batcher.submit(request)

                    def log(self, request):
                        pass
                """,
            },
        )
        handle = index.functions["repro.serve.server.AlignmentServer.handle"]
        targets = {t for call in handle.calls for t in call.targets}
        assert "repro.serve.server.AlignmentServer.log" in targets
        assert "repro.serve.scheduler.MicroBatcher.submit" in targets

    def test_typed_local_and_import_calls_resolve(self, tmp_path):
        index = _build(
            tmp_path,
            {
                "src/repro/serve/scheduler.py": """\
                class MicroBatcher:
                    async def submit(self, request):
                        return request
                """,
                "src/repro/cli.py": """\
                import time

                from .serve.scheduler import MicroBatcher

                def run():
                    time.sleep(1)
                    batcher = MicroBatcher()
                    return batcher.submit(None)
                """,
            },
        )
        run = index.functions["repro.cli.run"]
        targets = {t for call in run.calls for t in call.targets}
        assert "time.sleep" in targets
        assert "repro.serve.scheduler.MicroBatcher" in targets
        assert "repro.serve.scheduler.MicroBatcher.submit" in targets

    def test_unresolvable_calls_record_empty_targets(self, tmp_path):
        index = _build(
            tmp_path,
            {
                "src/repro/cli.py": """\
                def run(writer):
                    writer.drain()
                """
            },
        )
        (call,) = index.functions["repro.cli.run"].calls
        assert call.raw == "writer.drain"
        assert call.targets == ()

    def test_nested_closures_get_their_own_entry(self, tmp_path):
        index = _build(
            tmp_path,
            {
                "src/repro/serve/server.py": """\
                async def handle():
                    async def respond(line):
                        return line

                    return await respond("x")
                """
            },
        )
        qual = "repro.serve.server.handle.<locals>.respond"
        assert index.functions[qual].is_async
        # The closure's body is not attributed to the enclosing def.
        handle_raws = {
            c.raw for c in index.functions["repro.serve.server.handle"].calls
        }
        assert handle_raws == {"respond"}


class TestReachability:
    def test_async_roots_reach_sync_helpers_transitively(self, tmp_path):
        index = _build(
            tmp_path,
            {
                "src/repro/serve/server.py": """\
                from repro.engine.engine import align

                async def handle():
                    return step()

                def step():
                    return align()
                """,
                "src/repro/engine/engine.py": """\
                def align():
                    return 0

                def unrelated():
                    return 1
                """,
            },
        )
        reachable = index.reachable_from({"repro.serve.server.handle"})
        assert "repro.serve.server.step" in reachable
        assert "repro.engine.engine.align" in reachable
        assert "repro.engine.engine.unrelated" not in reachable

    def test_class_call_edges_reach_init(self, tmp_path):
        index = _build(
            tmp_path,
            {
                "src/repro/serve/server.py": """\
                from repro.engine.engine import Engine

                async def handle():
                    return Engine()
                """,
                "src/repro/engine/engine.py": """\
                def warm():
                    return 0

                class Engine:
                    def __init__(self):
                        warm()
                """,
            },
        )
        reachable = index.reachable_from({"repro.serve.server.handle"})
        assert "repro.engine.engine.Engine.__init__" in reachable
        assert "repro.engine.engine.warm" in reachable


class TestGraphDump:
    def test_dump_is_json_shaped_and_complete(self, tmp_path):
        index = _build(
            tmp_path,
            {
                "src/repro/serve/server.py": """\
                import time

                async def handle():
                    time.sleep(1)
                """
            },
        )
        dump = index.graph_dump()
        assert set(dump) == {
            "modules",
            "functions",
            "classes",
            "async_reachable",
        }
        func = dump["functions"]["repro.serve.server.handle"]
        assert func["async"] is True
        assert func["calls"] == [
            {"raw": "time.sleep", "targets": ["time.sleep"], "line": 4}
        ]
        assert dump["async_reachable"] == ["repro.serve.server.handle"]
