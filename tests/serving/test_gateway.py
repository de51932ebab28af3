"""Async gateway: admission control, deadlines, HTTP front door, wire parity."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.common import tracing
from repro.serving.gateway import AsyncGateway, GatewayHTTPServer
from repro.serving.protocol import (
    decode_response,
    encode_request,
    encode_response,
    payload_to_wire,
)
from repro.serving.requests import (
    AnnotateRequest,
    FactRankRequest,
    KnnRequest,
    NeighborhoodRequest,
    RelatedRequest,
    SimilarityRequest,
    VerifyRequest,
    WalkRequest,
)
from repro.serving.service import ServingService


@pytest.fixture(scope="module")
def service(bundle_dir) -> ServingService:
    svc = ServingService(bundle_dir, mode="inline")
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def embed_symbols(service):
    """(entities, predicate, candidate triples) known to the trained suite."""
    suite = service._pool.local_state.embedding_suite()
    dataset = suite.trained.dataset
    triples = [dataset.decode(*map(int, row)) for row in dataset.triples[:3]]
    return dataset.entities[:4], dataset.relations[0], triples


@pytest.fixture(scope="module")
def every_request(seed_entities, sample_texts, embed_symbols):
    """One servable request of every type in the protocol vocabulary."""
    entities, predicate, triples = embed_symbols
    return [
        WalkRequest(entities=tuple(seed_entities[:4]), seed=11),
        NeighborhoodRequest(entities=tuple(seed_entities[:3]), hops=2),
        RelatedRequest(entities=tuple(seed_entities[:2]), k=5),
        AnnotateRequest(texts=(sample_texts[0],)),
        FactRankRequest(entities=(triples[0][0],), predicate=predicate),
        VerifyRequest(candidates=tuple(triples)),
        SimilarityRequest(pairs=((entities[0], entities[1]), (entities[0], "ghost"))),
        KnnRequest(entities=(entities[0],), k=3),
    ]


def run(coro):
    return asyncio.run(coro)


async def http_roundtrip(host: int, port: int, raw: bytes) -> tuple[bytes, bytes]:
    """One raw HTTP exchange; returns (status line, body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    head, _, body = data.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], body


def post_query(body: bytes) -> bytes:
    return (
        f"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class TestServeAsync:
    def test_matches_sync_serve(self, service, seed_entities):
        request = WalkRequest(entities=tuple(seed_entities[:4]), seed=3)
        expected = service.serve(request)

        async def go():
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=4)
            try:
                return await gateway.serve_async(request)
            finally:
                gateway.close()

        response = run(go())
        assert response.ok
        assert response.payload == expected.payload
        assert response.store_version == expected.store_version

    def test_concurrent_single_text_annotations_match_annotate_many(
        self, service, sample_texts
    ):
        texts = sample_texts[:6]
        expected = [
            [(link.mention.start, link.mention.end, link.entity) for link in links]
            for links in service.serve(AnnotateRequest(texts=tuple(texts))).result()
        ]

        async def go():
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=8)
            try:
                return await asyncio.gather(
                    *(gateway.serve_async(AnnotateRequest(texts=(text,))) for text in texts)
                )
            finally:
                gateway.close()

        responses = run(go())
        assert all(r.ok for r in responses)
        assert [
            [(link.mention.start, link.mention.end, link.entity) for link in r.payload[0]]
            for r in responses
        ] == expected


class TestBackpressure:
    def test_queue_full_rejection_envelope(self, service, seed_entities, monkeypatch):
        release = threading.Event()
        real_serve = service.serve

        def slow_serve(request, **kwargs):
            release.wait(timeout=5.0)
            return real_serve(request, **kwargs)

        monkeypatch.setattr(service, "serve", slow_serve)
        request = WalkRequest(entities=(seed_entities[0],), seed=99)

        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=1)
            try:
                first = asyncio.ensure_future(gateway.serve_async(request))
                await asyncio.sleep(0.05)  # let it occupy the only slot
                second = await gateway.serve_async(request)
                release.set()
                return await first, second
            finally:
                gateway.close()

        first, second = run(go())
        assert first.ok
        assert not second.ok
        assert second.error is not None and second.error.code == "overloaded"
        assert service.metrics.counters["gateway.rejected"] == 1

    def test_rejection_does_not_leak_pending(self, service, seed_entities):
        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=1)
            try:
                for _ in range(3):
                    response = await gateway.serve_async(
                        WalkRequest(entities=(seed_entities[0],), seed=1)
                    )
                    assert response.ok
                return gateway.pending
            finally:
                gateway.close()

        assert run(go()) == 0

    def test_pending_must_cover_concurrency(self, service):
        with pytest.raises(ValueError):
            AsyncGateway(service, max_concurrency=4, max_pending=2)


class TestDeadline:
    def test_deadline_exceeded_envelope(self, service, seed_entities, monkeypatch):
        real_serve = service.serve

        def slow_serve(request, **kwargs):
            time.sleep(0.3)
            return real_serve(request, **kwargs)

        monkeypatch.setattr(service, "serve", slow_serve)

        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=2)
            try:
                # A seed no other test serves: a cached answer is given on
                # the event loop and never reaches the (slowed) executor.
                return await gateway.serve_async(
                    WalkRequest(entities=(seed_entities[0],), seed=1005),
                    deadline_s=0.05,
                )
            finally:
                gateway.close()

        response = run(go())
        assert not response.ok
        assert response.error is not None
        assert response.error.code == "deadline_exceeded"

    def test_abandoned_work_keeps_its_concurrency_slot(
        self, service, seed_entities, monkeypatch
    ):
        """A timed-out request's executor thread is still busy; its slot
        must not be handed to the next request until the abandoned
        computation finishes (or new requests would burn their deadlines
        queued behind it)."""
        real_serve = service.serve

        def sometimes_slow(request, **kwargs):
            if request.seed == 1000:
                time.sleep(0.3)
            return real_serve(request, **kwargs)

        monkeypatch.setattr(service, "serve", sometimes_slow)

        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=4)
            try:
                # Seeds no other test serves: both requests are misses, so
                # both need the executor (a hit is answered on the loop).
                timed_out = await gateway.serve_async(
                    WalkRequest(entities=(seed_entities[0],), seed=1000),
                    deadline_s=0.05,
                )
                follow_up_started = time.perf_counter()
                follow_up = await gateway.serve_async(
                    WalkRequest(entities=(seed_entities[0],), seed=1001)
                )
                waited = time.perf_counter() - follow_up_started
                return timed_out, follow_up, waited
            finally:
                gateway.close()

        timed_out, follow_up, waited = run(go())
        assert timed_out.error is not None
        assert timed_out.error.code == "deadline_exceeded"
        assert follow_up.ok
        # The follow-up had to wait out the abandoned ~0.3s computation
        # (of which ~0.05s elapsed before the deadline envelope returned).
        assert waited >= 0.15, waited

    def test_fast_request_beats_deadline(self, service, seed_entities):
        async def go():
            gateway = AsyncGateway(
                service, max_concurrency=1, max_pending=2, default_deadline_s=30.0
            )
            try:
                return await gateway.serve_async(
                    WalkRequest(entities=(seed_entities[0],), seed=6)
                )
            finally:
                gateway.close()

        assert run(go()).ok


class TestHTTPFrontDoor:
    def test_wire_parity_every_request_type(self, service, every_request):
        """AC pin: bytes -> Response -> bytes through the HTTP gateway,
        payloads byte-identical to the direct in-process facade call."""

        async def go():
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=8)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            results = []
            try:
                for request in every_request:
                    status_line, body = await http_roundtrip(
                        host, port, post_query(encode_request(request))
                    )
                    results.append((request, status_line, body))
            finally:
                await server.stop()
                gateway.close()
            return results

        for request, status_line, body in run(go()):
            name = type(request).__name__
            assert status_line == b"HTTP/1.1 200 OK", (name, body)
            wire = decode_response(body)
            assert wire.ok, (name, wire.error)
            direct = service.serve(request)
            assert direct.ok, name
            wire_type = type(request).wire_type
            # Byte-identical payloads: canonical JSON of the gateway's
            # decoded payload vs the direct facade result.
            gateway_bytes = json.dumps(
                json.loads(body)["payload"], sort_keys=True
            ).encode()
            direct_bytes = json.dumps(
                payload_to_wire(wire_type, direct.payload), sort_keys=True
            ).encode()
            assert gateway_bytes == direct_bytes, name
            # And the response itself re-encodes stably (bytes -> Response
            # -> bytes is the identity on the envelope's wire fields).
            assert encode_response(decode_response(body)) == encode_response(wire)

    def test_worker_error_becomes_envelope_not_traceback(self, service):
        request = KnnRequest(entities=("entity:does-not-exist",), k=3)

        async def go():
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=4)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                return await http_roundtrip(
                    host, port, post_query(encode_request(request))
                )
            finally:
                await server.stop()
                gateway.close()

        status_line, body = run(go())
        assert status_line == b"HTTP/1.1 500 Internal Server Error"
        assert b"Traceback" not in body
        response = decode_response(body)
        assert response.status == "error"
        assert response.error.code == "internal"
        assert "EmbeddingError" in response.error.message

    def test_malformed_json_rejected(self, service):
        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=2)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                return await http_roundtrip(host, port, post_query(b"{nope"))
            finally:
                await server.stop()
                gateway.close()

        status_line, body = run(go())
        assert status_line == b"HTTP/1.1 400 Bad Request"
        envelope = json.loads(body)
        assert envelope["status"] == "error"
        assert envelope["error"]["code"] == "bad_request"

    def test_negative_content_length_rejected(self, service):
        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=2)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                return await http_roundtrip(
                    host,
                    port,
                    b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n",
                )
            finally:
                await server.stop()
                gateway.close()

        status_line, body = run(go())
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert decode_response(body).error.code == "bad_request"

    def test_unknown_schema_version_rejected(self, service):
        bad = json.dumps(
            {"protocol": 42, "type": "walk", "body": {"entities": ["x"]}}
        ).encode()

        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=2)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                return await http_roundtrip(host, port, post_query(bad))
            finally:
                await server.stop()
                gateway.close()

        status_line, body = run(go())
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert json.loads(body)["error"]["code"] == "unsupported_version"

    def test_healthz_and_stats(self, service):
        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=2)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                health = await http_roundtrip(
                    host, port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                stats = await http_roundtrip(
                    host, port, b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                missing = await http_roundtrip(
                    host, port, b"GET /nowhere HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                wrong_method = await http_roundtrip(
                    host, port, b"GET /v1/query HTTP/1.1\r\nHost: t\r\n\r\n"
                )
            finally:
                await server.stop()
                gateway.close()
            return health, stats, missing, wrong_method

        (h_status, h_body), (s_status, s_body), missing, wrong_method = run(go())
        assert h_status == b"HTTP/1.1 200 OK"
        health = json.loads(h_body)
        assert health["status"] == "ok"
        assert health["store_version"] == service.store_version
        assert s_status == b"HTTP/1.1 200 OK"
        assert "serve.workers" in json.loads(s_body)
        # Transport-level failures are full envelopes the codec can parse.
        assert missing[0] == b"HTTP/1.1 404 Not Found"
        assert decode_response(missing[1]).error.code == "bad_request"
        assert wrong_method[0] == b"HTTP/1.1 405 Method Not Allowed"
        assert decode_response(wrong_method[1]).error.code == "bad_request"


def counters_of(stats: dict) -> dict:
    """The request, status and cache counters a front-door change must keep."""
    prefixes = (
        "counter.gateway.requests", "counter.serve.requests", "counter.serve.status.",
        "counter.cache.hits.", "counter.cache.misses.", "serve.cache_hits",
        "serve.cache_misses", "serve.cache_hit_rate",
    )
    return {key: value for key, value in stats.items() if key.startswith(prefixes)}


class TestLoopHits:
    """Shared-scope cache hits are answered on the event loop; misses keep
    the executor bridge and are probed once."""

    def test_counters_match_the_executor_only_path(
        self, bundle_dir, every_request, sample_texts
    ):
        uncacheable = AnnotateRequest(texts=tuple(sample_texts[:2]))
        requests = every_request + [uncacheable] + every_request * 2
        hits, misses = 2 * len(every_request), len(every_request)

        async def front_door(service):
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=8)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                bodies = [
                    (await http_roundtrip(host, port, post_query(encode_request(r))))[1]
                    for r in requests
                ]
                metrics = await http_roundtrip(
                    host, port, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
                )
            finally:
                await server.stop()
                gateway.close()
            return [decode_response(body) for body in bodies], metrics[1].decode()

        with ServingService(bundle_dir, mode="inline") as looped:
            responses, metrics_text = run(front_door(looped))
            looped_counters = counters_of(looped.stats())
        with ServingService(bundle_dir, mode="inline") as direct:
            # The baseline: no gateway at all; ServingService.serve probes
            # the cache itself for every request.
            direct_responses = [direct.serve(r) for r in requests]
            direct_counters = counters_of(direct.stats())

        def beyond_the_gateway(counters: dict) -> dict:
            return {
                key: value for key, value in counters.items()
                if not key.startswith("counter.gateway.")
            }

        assert all(r.ok for r in responses + direct_responses)
        assert [r.cached for r in responses] == [r.cached for r in direct_responses]
        assert sum(r.cached for r in responses) == hits
        assert beyond_the_gateway(looped_counters) == beyond_the_gateway(direct_counters)
        assert looped_counters["counter.gateway.requests"] == len(requests)
        assert looped_counters["counter.serve.requests"] == len(requests)
        assert looped_counters["counter.serve.status.ok"] == len(requests)
        assert looped_counters["serve.cache_hits"] == hits
        assert looped_counters["serve.cache_misses"] == misses  # not twice
        for request in every_request:
            name, wire = type(request).__name__, type(request).wire_type
            assert looped_counters[f"counter.cache.hits.{wire}"] == 2
            assert looped_counters[f"counter.cache.misses.{wire}"] == 1
            assert looped_counters[f"counter.serve.requests.{name}"] == 3 + (
                name == "AnnotateRequest"
            )
        samples = dict(
            line.rsplit(" ", 1) for line in metrics_text.splitlines()
            if line and not line.startswith("#")
        )
        assert float(samples["kg_gateway_requests_total"]) == len(requests)
        assert float(samples["kg_serve_requests_total"]) == len(requests)
        assert float(samples['kg_serve_responses_by_status_total{status="ok"}']) == len(requests)
        assert float(samples['kg_cache_hits_by_type_total{type="walk"}']) == 2
        assert float(samples['kg_cache_misses_by_type_total{type="walk"}']) == 1

    def test_hit_needs_no_executor_slot(self, service, seed_entities, monkeypatch):
        hot = WalkRequest(entities=(seed_entities[1],), seed=2001)
        assert service.serve(hot).ok  # cached
        release = threading.Event()
        real_serve = service.serve

        def blocking_serve(request, **kwargs):
            release.wait(timeout=5.0)
            return real_serve(request, **kwargs)

        monkeypatch.setattr(service, "serve", blocking_serve)

        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=4)
            try:
                cold = asyncio.ensure_future(gateway.serve_async(
                    WalkRequest(entities=(seed_entities[1],), seed=2002)
                ))
                await asyncio.sleep(0.05)  # the miss holds the only slot
                hit = await gateway.serve_async(hot)
                still_blocked = not cold.done()
                release.set()
                return hit, still_blocked, await cold
            finally:
                release.set()
                gateway.close()

        hit, still_blocked, cold = run(go())
        assert hit.ok and hit.cached and still_blocked
        assert cold.ok and not cold.cached

    def test_cancelled_queued_miss_still_gets_a_status(self, bundle_dir, seed_entities):
        """A miss probed on the loop, then cancelled while it queued for an
        executor slot, never reaches serve(): it is still counted with a
        final status and its serve.request span still closes."""
        release = threading.Event()

        with ServingService(bundle_dir, mode="inline") as svc:
            real_serve = svc.serve

            def blocking_serve(request, **kwargs):
                release.wait(timeout=5.0)
                return real_serve(request, **kwargs)

            svc.serve = blocking_serve

            async def go():
                gateway = AsyncGateway(svc, max_concurrency=1, max_pending=4)
                try:
                    holder = asyncio.ensure_future(gateway.serve_async(
                        WalkRequest(entities=(seed_entities[2],), seed=2003)
                    ))
                    await asyncio.sleep(0.05)  # the holder has the only slot
                    queued = asyncio.ensure_future(gateway.serve_async(
                        WalkRequest(entities=(seed_entities[2],), seed=2004)
                    ))
                    await asyncio.sleep(0.05)
                    queued.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await queued
                    release.set()
                    return await holder
                finally:
                    release.set()
                    gateway.close()

            with tracing.armed() as tracer:
                holder = run(go())
                traces = tracer.recent()
            stats = svc.stats()

        assert holder.ok
        assert stats["counter.serve.requests"] == 2
        assert stats["counter.serve.status.ok"] == 1
        assert stats["counter.serve.status.error"] == 1
        serve_spans = [
            span for trace in traces for span in trace["spans"]
            if span["name"] == "serve.request"
        ]
        assert sorted(span["attributes"]["status"] for span in serve_spans) == [
            "error", "ok"
        ]


async def raw_exchanges(service, scripts) -> list[bytes]:
    """Run raw client scripts against one gateway, in order.

    A script is a list of byte chunks (written with a short pause
    between them) and ends with ``"close"`` (hang up without reading),
    ``"eof"`` (half-close, then read the answer) or ``"read"`` (read the
    answer); each script yields the raw bytes it read.
    """
    gateway = AsyncGateway(service, max_concurrency=1, max_pending=2)
    server = GatewayHTTPServer(gateway)
    host, port = await server.start()
    answers = []
    try:
        for script in scripts:
            *chunks, ending = script
            reader, writer = await asyncio.open_connection(host, port)
            for index, chunk in enumerate(chunks):
                if index:
                    await asyncio.sleep(0.02)
                writer.write(chunk)
                await writer.drain()
            if ending == "eof":
                writer.write_eof()
            if ending == "close":
                answers.append(b"")
            else:
                answers.append(await asyncio.wait_for(reader.read(), timeout=10.0))
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        await asyncio.sleep(0.05)  # let the server finish the last handler
    finally:
        await server.stop()
        gateway.close()
    return answers


def split_answer(raw: bytes) -> tuple[bytes, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], body


class TestHTTPFraming:
    """The request-head parser's framing contract."""

    def test_crlf_and_bare_lf_head_terminators(self, service, seed_entities):
        body = encode_request(WalkRequest(entities=tuple(seed_entities[:2]), seed=41))
        head = f"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
        crlf, bare = run(
            raw_exchanges(
                service,
                [[head.encode() + body, "read"],
                 [head.replace("\r\n", "\n").encode() + body, "read"]],
            )
        )
        for raw in (crlf, bare):
            status_line, payload = split_answer(raw)
            assert status_line == b"HTTP/1.1 200 OK", raw
            assert decode_response(payload).ok
        assert json.loads(split_answer(crlf)[1])["payload"] == json.loads(
            split_answer(bare)[1]
        )["payload"]

    def test_head_split_across_writes(self, service, seed_entities):
        body = encode_request(WalkRequest(entities=tuple(seed_entities[:2]), seed=42))
        raw = post_query(body)
        [answer] = run(raw_exchanges(service, [[raw[:7], raw[7:30], raw[30:], "read"]]))
        assert split_answer(answer)[0] == b"HTTP/1.1 200 OK"

    def test_get_without_headers_or_body(self, service):
        crlf, bare = run(
            raw_exchanges(
                service,
                [[b"GET /healthz HTTP/1.1\r\n\r\n", "read"],
                 [b"GET /healthz HTTP/1.1\n\n", "read"]],
            )
        )
        for raw in (crlf, bare):
            status_line, body = split_answer(raw)
            assert status_line == b"HTTP/1.1 200 OK", raw
            assert json.loads(body)["healthy"] is True

    def test_malformed_request_line(self, service):
        [raw] = run(raw_exchanges(service, [[b"GARBAGE\r\n\r\n", "read"]]))
        status_line, body = split_answer(raw)
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert decode_response(body).error.code == "bad_request"

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
    def test_bad_content_length(self, service, value):
        raw_request = f"POST /v1/query HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
        [raw] = run(raw_exchanges(service, [[raw_request.encode(), "read"]]))
        status_line, body = split_answer(raw)
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert decode_response(body).error.code == "bad_request"

    def test_body_over_the_limit_is_refused_unread(self, service):
        from repro.serving.gateway import MAX_REQUEST_BYTES

        raw_request = (
            f"POST /v1/query HTTP/1.1\r\nContent-Length: {MAX_REQUEST_BYTES + 1}\r\n\r\n"
        )
        [raw] = run(raw_exchanges(service, [[raw_request.encode(), "read"]]))
        status_line, body = split_answer(raw)
        assert status_line == b"HTTP/1.1 413 Payload Too Large"
        assert decode_response(body).error.code == "bad_request"

    def test_client_closing_mid_head_gets_no_traceback(
        self, service, seed_entities, caplog
    ):
        partial = b"POST /v1/query HTTP/1.1\r\nContent-Le"
        good = post_query(encode_request(WalkRequest(entities=(seed_entities[0],), seed=43)))
        with caplog.at_level("WARNING"):
            _closed, half_closed, after = run(
                raw_exchanges(
                    service,
                    [[partial, "close"], [partial, "eof"], [good, "read"]],
                )
            )
        status_line, body = split_answer(half_closed)
        assert status_line == b"HTTP/1.1 400 Bad Request", half_closed
        assert b"Traceback" not in body
        assert decode_response(body).error.code == "bad_request"
        assert split_answer(after)[0] == b"HTTP/1.1 200 OK"
        assert not [r for r in caplog.records if r.levelname in ("ERROR", "CRITICAL")], [
            r.getMessage() for r in caplog.records
        ]


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text(encoding="latin-1")
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


async def read_to_eof(host: str, port: int, request) -> bytes:
    """POST ``request`` and read the reply up to EOF, within 5 s."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(post_query(encode_request(request)))
        await writer.drain()
        # A forked worker holding a copy of this connection would keep it
        # open after the gateway closes it: no EOF, a timeout here.
        return await asyncio.wait_for(reader.read(), timeout=5.0)
    finally:
        writer.close()


class TestProcessModeLifecycle:
    """Process-mode workers hold no gateway socket and die with it."""

    def test_client_reading_to_eof_returns_after_boot_and_swap(
        self, bundle_dir, seed_entities
    ):
        async def go(service):
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=8)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                booted = await read_to_eof(
                    host, port, NeighborhoodRequest(entities=tuple(seed_entities[:2]))
                )
                # A swap forks a new fleet while the server's sockets are open.
                service.adopt_generation(bundle_dir)
                swapped = await read_to_eof(
                    host, port, NeighborhoodRequest(entities=tuple(seed_entities[2:4]))
                )
            finally:
                await server.stop()
                gateway.close()
            return booted, swapped

        with ServingService(bundle_dir, mode="process") as service:
            for data in run(go(service)):
                assert data.startswith(b"HTTP/1.1 200 OK")

    def test_sigterm_leaves_no_process_in_the_group(self, bundle_dir, seed_entities, tmp_path):
        log_path = tmp_path / "gateway.log"
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        with open(log_path, "wb") as log:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.serving.gateway", str(bundle_dir),
                 "--mode", "process", "--port", "0"],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                env=env, start_new_session=True,
            )
        try:
            port = 0
            deadline = time.monotonic() + 60.0
            while not port:
                assert process.poll() is None, log_path.read_text()
                assert time.monotonic() < deadline, "gateway did not start"
                for line in log_path.read_text(errors="replace").splitlines():
                    if '"server.started"' in line:
                        port = json.loads(line)["port"]
                time.sleep(0.02)
            request = NeighborhoodRequest(entities=tuple(seed_entities[:2]))
            data = run(read_to_eof("127.0.0.1", port, request))
            assert data.startswith(b"HTTP/1.1 200 OK")
            assert len(group_pids(process.pid)) >= 2  # the gateway and its worker
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            deadline = time.monotonic() + 10.0
            while group_pids(process.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert group_pids(process.pid) == []
        finally:
            if group_pids(process.pid):
                os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=10)
