"""Integration suite for the alignment service (ISSUE 8 satellite 4).

A real :class:`AlignmentServer` runs on an ephemeral port inside a
background thread (its own event loop); real :class:`ServeClient`
sockets talk to it.  Pinned here:

* concurrent clients with duplicate pairs — the cross-client requests
  coalesce through the shared engine (cache/coalesce counters);
* admission control — ``deadline_exceeded`` and ``queue_full`` (with
  the ``retry_after_ms`` hint) surface to the wire;
* graceful drain — queued requests still get real answers, new
  connections are refused, ``/dev/shm`` stays clean;
* the hypothesis property that served responses are **bit-identical**
  to a one-shot :func:`align_pairs` run of the same workload.
"""

import asyncio
import socket
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.engine import EngineConfig, align_pairs
from repro.obs import MetricsRegistry
from repro.serve import (
    ERROR_DEADLINE,
    ERROR_PROTOCOL,
    ERROR_QUEUE_FULL,
    AlignmentServer,
    ServeClient,
    ServeConfig,
)
from tests.util import shm_entries

ENGINE = dict(workers=1, backtrace=True)


class RunningServer:
    """An :class:`AlignmentServer` on a background event-loop thread."""

    def __init__(self, engine_config=None, serve_config=None):
        self.registry = MetricsRegistry()
        self.server = AlignmentServer(
            engine_config or EngineConfig(**ENGINE),
            serve_config or ServeConfig(batch_window=0.005),
            port=0,
            registry=self.registry,
        )
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "server failed to start"

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.wait_closed()

    @property
    def address(self):
        return self.server.address

    def client(self, **kwargs):
        host, port = self.address
        return ServeClient(host, port, **kwargs)

    def shutdown(self):
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop
        ).result(30)
        self._thread.join(10)


@pytest.fixture
def running_server():
    handles = []

    def launch(engine_config=None, serve_config=None):
        handle = RunningServer(engine_config, serve_config)
        handles.append(handle)
        return handle

    yield launch
    for handle in handles:
        handle.shutdown()


WORKLOAD = [
    ("ACGTACGT", "ACGTACGT"),
    ("ACGTACGT", "ACCTACGA"),
    ("AAAATTTT", "AAACTTTT"),
    ("ACGTACGT", "ACGTACGT"),  # duplicate of pair 0
]


def outcome_doc(outcome):
    """A :class:`PairOutcome` as the wire's response channels."""
    return {
        "ok": outcome.ok,
        "score": outcome.score,
        "success": outcome.success,
        "cigar": outcome.cigar,
        "error_kind": outcome.error_kind,
        "error_msg": outcome.error_msg,
    }


def response_doc(response):
    return {key: response.get(key) for key in (
        "ok", "score", "success", "cigar", "error_kind", "error_msg"
    )}


class TestConcurrentClients:
    def test_eight_clients_bit_identical_with_coalescing(self, running_server):
        handle = running_server()
        expected = [
            outcome_doc(o)
            for o in align_pairs(WORKLOAD, **ENGINE).outcomes
        ]

        results = {}

        def one_client(idx):
            with handle.client() as client:
                results[idx] = client.align_many(WORKLOAD)

        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert sorted(results) == list(range(8))
        for idx in range(8):
            assert [response_doc(r) for r in results[idx]] == expected

        # 8 clients x 4 pairs over 3 unique keys: at most 3 real
        # alignments ever ran; everything else was served by coalescing
        # within micro-batches or by the shared LRU cache across them.
        with handle.client() as client:
            report = client.stats()["report"]
        assert report["num_pairs"] == 8 * len(WORKLOAD)
        assert report["pairs_aligned"] == 3
        assert (
            report["cache_hits"] + report["coalesced"]
            == 8 * len(WORKLOAD) - 3
        )

    def test_pipelined_requests_fill_batches(self, running_server):
        handle = running_server(
            serve_config=ServeConfig(batch_window=0.05, max_batch=64)
        )
        with handle.client() as client:
            responses = client.align_many(WORKLOAD * 4)
        assert all(r["ok"] for r in responses)
        snap = handle.registry.snapshot()
        sizes = snap["serve_batch_size"]["series"][0]["value"]
        assert sizes["max"] > 1, "pipelined requests never shared a batch"


class TestAdmissionOnTheWire:
    def test_deadline_exceeded(self, running_server):
        handle = running_server(
            serve_config=ServeConfig(batch_window=0.2)
        )
        with handle.client() as client:
            response = client.align("ACGT", "ACCT", deadline_ms=0.001)
        assert response["ok"] is False
        assert response["error_kind"] == ERROR_DEADLINE

    def test_queue_full_with_retry_hint(self, running_server):
        handle = running_server(
            serve_config=ServeConfig(batch_window=0.3, max_queue_depth=2)
        )
        with handle.client() as client:
            responses = client.align_many(
                [("ACGT", "ACCT")] * 8
            )
        rejected = [
            r for r in responses if r.get("error_kind") == ERROR_QUEUE_FULL
        ]
        served = [r for r in responses if r["ok"]]
        assert rejected, "no request ever saw the bounded queue"
        assert served, "admission rejected everything"
        assert all(r["retry_after_ms"] >= 1.0 for r in rejected)

    def test_protocol_error_keeps_connection_alive(self, running_server):
        handle = running_server()
        with handle.client() as client:
            client._fh.write(b'{"type": "align", "pattern": "A"}\n')
            client._fh.write(b"this is not json\n")
            client._fh.flush()
            bad_request = client._recv()
            bad_json = client._recv()
            alive = client.align("ACGT", "ACGT")
        for doc in (bad_request, bad_json):
            assert doc["ok"] is False
            assert doc["error_kind"] == ERROR_PROTOCOL
        assert bad_request["id"] is None and bad_json["id"] is None
        assert alive["ok"] is True and alive["score"] == 0

    def test_ping(self, running_server):
        with running_server().client() as client:
            assert client.ping()["type"] == "pong"

    def test_stats_document(self, running_server):
        handle = running_server()
        with handle.client() as client:
            client.align("ACGT", "ACCT")
            doc = client.stats()
        assert doc["ok"] is True and doc["type"] == "stats"
        assert doc["uptime_seconds"] > 0
        assert doc["queue_depth"] == 0
        assert "serve_requests_total" in doc["metrics"]
        assert doc["report"]["num_pairs"] == 1


class TestGracefulDrain:
    def test_drain_answers_queued_work_and_refuses_new_connections(self):
        before = shm_entries()
        handle = RunningServer(
            serve_config=ServeConfig(batch_window=0.5)
        )
        client = handle.client()
        try:
            # Pipeline into the open window, then shut down while the
            # batch is still accumulating: drain must answer them all.
            ids = []
            for pattern, text in WORKLOAD:
                request_id = client._fresh_id()
                ids.append(request_id)
                client._send({
                    "type": "align", "id": request_id,
                    "pattern": pattern, "text": text,
                })
            client._fh.flush()
            # Give the loop time to admit the lines into the still-open
            # batch window before the drain begins.
            time.sleep(0.15)
            handle.shutdown()
            answers = [client._recv() for _ in ids]
            assert {a["id"] for a in answers} == set(ids)
            assert all(a["ok"] for a in answers)
        finally:
            client.close()
        host, port = handle.address
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)
        assert shm_entries() - before == set()

    def test_shutdown_is_idempotent(self):
        before = shm_entries()
        handle = RunningServer()
        handle.shutdown()
        handle.shutdown()
        assert shm_entries() - before == set()


class TestBitIdentity:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        pairs=st.lists(
            st.tuples(
                st.text(alphabet="ACGTN", max_size=32),
                st.text(alphabet="ACGTN", max_size=32),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_served_responses_match_one_shot_align_pairs(
        self, running_server, pairs
    ):
        handle = getattr(self, "_handle", None)
        if handle is None:
            handle = self._handle = running_server()
        expected = [
            outcome_doc(o) for o in align_pairs(pairs, **ENGINE).outcomes
        ]
        with handle.client() as client:
            responses = client.align_many(pairs)
        assert [response_doc(r) for r in responses] == expected
