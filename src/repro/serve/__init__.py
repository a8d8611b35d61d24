"""The always-on alignment service (``repro-wfasic serve``).

The layer that turns the batch engine into a *system*: a long-running
asyncio socket server accepts newline-delimited JSON alignment
requests from many concurrent clients and feeds them through a
micro-batching scheduler into one long-lived
:class:`~repro.engine.BatchAlignmentEngine` — so every client shares
the engine's worker pool, LRU cache and duplicate coalescing, and
the fixed per-dispatch cost amortises
across whoever happens to be asking at the same time.

* :mod:`.protocol` — the NDJSON wire protocol and its error taxonomy;
* :mod:`.scheduler` — :class:`MicroBatcher`: batch windows, bounded
  queue with retry-after backpressure, per-request deadlines;
* :mod:`.server` — :class:`AlignmentServer`: connections, pipelining,
  graceful drain;
* :mod:`.client` — :class:`ServeClient`: the synchronous scripting and
  ``repro-wfasic submit`` surface.

See ``docs/serving.md`` for the protocol and admission-control
contract.
"""

from .client import ServeClient
from .protocol import (
    ERROR_DEADLINE,
    ERROR_PROTOCOL,
    ERROR_QUEUE_FULL,
    ERROR_SHUTTING_DOWN,
    AlignRequest,
    ControlRequest,
    ProtocolError,
    align_response,
    decode_line,
    encode_line,
    error_response,
    parse_request,
)
from .scheduler import MicroBatcher, ServeConfig
from .server import AlignmentServer

__all__ = [
    "AlignmentServer",
    "MicroBatcher",
    "ServeConfig",
    "ServeClient",
    "AlignRequest",
    "ControlRequest",
    "ProtocolError",
    "parse_request",
    "align_response",
    "error_response",
    "encode_line",
    "decode_line",
    "ERROR_QUEUE_FULL",
    "ERROR_DEADLINE",
    "ERROR_SHUTTING_DOWN",
    "ERROR_PROTOCOL",
]
