"""The always-on alignment service: an asyncio NDJSON socket server.

:class:`AlignmentServer` owns one long-lived
:class:`~repro.engine.BatchAlignmentEngine` (its worker pool and LRU
cache persist across every request of the session — the spin-up cost a
one-shot CLI pays per invocation is paid once here)
and one :class:`~repro.serve.scheduler.MicroBatcher` feeding it.  Each
client connection is read line by line; every request on a connection
is pipelined into the shared scheduler as its own task, so a single
client streaming requests fills micro-batches just as well as many
clients sending one each.

Shutdown is a *graceful drain*: the listening socket closes first (no
new connections), new submissions are rejected ``shutting_down``,
queued requests still dispatch and get real answers, and only then
does the engine pool tear down — the same leak-free exit contract the
CLI keeps, extended to the serving path.

The server never prints; the CLI (``repro-wfasic serve``) owns stdout
and renders :meth:`MicroBatcher.session_report` on exit.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from ..engine.engine import BatchAlignmentEngine, EngineConfig
from ..obs.metrics import MetricsRegistry, get_registry
from .protocol import (
    ERROR_PROTOCOL,
    AlignRequest,
    ControlRequest,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    parse_request,
)
from .scheduler import MicroBatcher, ServeConfig

__all__ = ["AlignmentServer"]


class AlignmentServer:
    """One serve session: engine + scheduler + listening socket.

    Usage (the CLI does exactly this)::

        server = AlignmentServer(engine_config, serve_config, port=7878)
        await server.start()
        await server.wait_closed()   # until shutdown() is called

    ``port=0`` binds an ephemeral port (tests); the bound address is
    available as :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        engine_config: EngineConfig | None = None,
        serve_config: ServeConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.engine_config = engine_config or EngineConfig()
        self.serve_config = serve_config or ServeConfig()
        self.host = host
        self.port = port
        self._registry = registry
        #: The engine instances (``serve_config.instances`` of them).
        self.engines: list[BatchAlignmentEngine] = []
        self.batcher: MicroBatcher | None = None
        self._server: asyncio.AbstractServer | None = None
        self._closed: "asyncio.Event | None" = None
        self._shutting_down = False

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return (self.host, self.port)
        host, port = self._server.sockets[0].getsockname()[:2]
        return (host, port)

    async def start(self) -> None:
        """Create the engine(s), start the batcher loop, bind the socket."""
        self.engines = [
            BatchAlignmentEngine(self.engine_config)
            for _ in range(self.serve_config.instances)
        ]
        self.batcher = MicroBatcher(
            self.engines, self.serve_config, registry=self._registry
        )
        self.batcher.start()
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )

    async def shutdown(self) -> None:
        """Graceful drain: close the socket, flush, tear the engine down."""
        if self._shutting_down:
            return
        self._shutting_down = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.batcher is not None:
            await self.batcher.drain()
        for engine in self.engines:
            # close() joins the pool — blocking work that belongs off
            # the event loop.
            await asyncio.get_running_loop().run_in_executor(
                None, engine.close
            )
        if self._closed is not None:
            self._closed.set()

    async def wait_closed(self) -> None:
        """Block until :meth:`shutdown` completes (the CLI's main await)."""
        if self._closed is not None:
            await self._closed.wait()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client: pipeline every line into the scheduler.

        Each request becomes its own task so a connection's requests
        batch together (and with other connections'); responses are
        written under a per-connection lock in completion order, which
        the protocol allows (clients match on ``id``).
        """
        write_lock = asyncio.Lock()
        tasks: set["asyncio.Task[None]"] = set()

        async def respond(doc: dict) -> None:
            async with write_lock:
                writer.write(encode_line(doc))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(stripped, respond)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client went away mid-conversation; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_line(
        self,
        line: bytes,
        respond: Callable[[dict], Awaitable[None]],
    ) -> None:
        assert self.batcher is not None, "serve_line before start()"
        registry = self._registry or get_registry()
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            registry.counter(
                "serve_rejected_total", "Requests rejected by reason"
            ).inc(1, {"kind": ERROR_PROTOCOL})
            await respond(
                error_response(
                    _best_effort_id(line), ERROR_PROTOCOL, str(exc)
                )
            )
            return
        if isinstance(request, AlignRequest):
            await respond(await self.batcher.submit(request))
            return
        assert isinstance(request, ControlRequest)
        registry.counter(
            "serve_requests_total", "Requests received by kind"
        ).inc(1, {"kind": request.kind})
        if request.kind == "ping":
            await respond(
                {"id": request.request_id, "ok": True, "type": "pong"}
            )
        else:
            await respond(self.batcher.stats_payload(request.request_id))


def _best_effort_id(line: bytes) -> object:
    """The request ``id`` of an invalid line, when one is recoverable."""
    try:
        return decode_line(line).get("id")
    except ProtocolError:
        return None
