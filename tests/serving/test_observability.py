"""End-to-end observability: traces, /metrics, /debug/traces, wire parity.

The acceptance pins for the tracing tentpole:

* one *complete* trace per request — gateway root, service stages,
  per-shard spans, worker spans — in inline AND process mode (the
  cross-process stitching path);
* stage spans reconcile exactly with the envelope ``timings`` keys;
* tracing never changes payloads, and an untraced envelope is
  byte-identical to a pre-tracing build (no ``trace``/``trace_id`` keys);
* ``GET /metrics`` renders parseable Prometheus text, ``GET
  /debug/traces`` serves the ring.
"""

import asyncio
import json
import os
import re

import pytest

from repro.common import tracing
from repro.common.metrics import MetricsRegistry
from repro.common.tracing import TraceContext, Tracer
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
from repro.serving.resilience import CircuitBreaker
from repro.serving.service import ServingService

STAGE_TIMING_OF = {
    "serve.cache": "cache_ms",
    "serve.scatter": "scatter_ms",
    "serve.compute": "compute_ms",
    "serve.gather": "gather_ms",
}


@pytest.fixture(autouse=True)
def _disarmed():
    tracing.disarm()
    tracing._CURRENT.set(None)
    yield
    tracing.disarm()
    tracing._CURRENT.set(None)


@pytest.fixture(scope="module")
def service(bundle_dir) -> ServingService:
    svc = ServingService(bundle_dir, mode="inline")
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def every_request(service, seed_entities, sample_texts):
    """One servable request of every type in the protocol vocabulary."""
    suite = service._pool.local_state.embedding_suite()
    dataset = suite.trained.dataset
    triples = [dataset.decode(*map(int, row)) for row in dataset.triples[:3]]
    entities, predicate = dataset.entities[:4], dataset.relations[0]
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


async def http_roundtrip(host, port, raw: bytes) -> tuple[bytes, bytes, bytes]:
    """One raw HTTP exchange; returns (status line, headers, body)."""
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
    return head.split(b"\r\n")[0], head, body


def post_query(body: bytes) -> bytes:
    return (
        f"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()


def span_names(trace: dict) -> set[str]:
    return {record["name"] for record in trace["spans"]}


def assert_single_well_formed_trace(trace: dict, root_name: str) -> None:
    """Structural pins every assembled trace must satisfy."""
    roots = [r for r in trace["spans"] if r["parent_id"] is None]
    assert len(roots) == 1, trace
    assert roots[0]["name"] == root_name
    ids = {record["span_id"] for record in trace["spans"]}
    for record in trace["spans"]:
        assert record["trace_id"] == trace["trace_id"]
        if record["parent_id"] is not None:
            assert record["parent_id"] in ids, (record["name"], trace)
        assert record["wall_ms"] >= 0.0
        assert record["exclusive_ms"] >= 0.0
        assert record["exclusive_ms"] <= record["wall_ms"] + 1e-9


class TestServeTracing:
    def test_one_complete_trace_per_request(self, service, seed_entities):
        request = WalkRequest(entities=tuple(seed_entities[:4]), seed=3)
        with tracing.armed() as tracer:
            response = service.serve(request)
            assert response.ok
            [trace] = tracer.recent()
        assert_single_well_formed_trace(trace, "serve.request")
        names = span_names(trace)
        assert {"serve.request", "serve.scatter", "serve.compute",
                "serve.gather", "serve.shard", "worker.execute"} <= names
        assert response.trace_id == trace["trace_id"]
        assert tracer.counters()["traces_live"] == 0

    def test_stage_spans_reconcile_with_envelope_timings(
        self, service, seed_entities
    ):
        request = WalkRequest(entities=tuple(seed_entities[:6]), seed=5)
        with tracing.armed() as tracer:
            response = service.serve(request)
            [trace] = tracer.recent()
        stage_ms = {
            record["name"]: record["attributes"]["stage_ms"]
            for record in trace["spans"]
            if "stage_ms" in record["attributes"]
        }
        assert stage_ms, trace
        for name, value in stage_ms.items():
            key = STAGE_TIMING_OF[name]
            # The stage span carries the exact envelope measurement.
            assert response.timings[key] == value, (name, response.timings)
        # And the stage measurement is bounded by its span's wall time.
        by_name = {record["name"]: record for record in trace["spans"]}
        for name, value in stage_ms.items():
            assert value <= by_name[name]["wall_ms"] + 1e-6

    def test_cache_hit_trace_and_total_ms(self, service, seed_entities):
        request = WalkRequest(entities=tuple(seed_entities[:2]), seed=77)
        service.serve(request)  # warm the cache untraced
        with tracing.armed() as tracer:
            response = service.serve(request)
            [trace] = tracer.recent()
        assert response.cached
        assert "total_ms" in response.timings  # satellite: always present
        by_name = {record["name"]: record for record in trace["spans"]}
        assert by_name["serve.cache"]["attributes"]["hit"] is True
        assert by_name["serve.request"]["attributes"]["cached"] is True

    def test_error_envelope_has_total_ms_and_trace(self, service):
        class Bogus:
            pass

        with tracing.armed() as tracer:
            response = service.serve(Bogus())
            [trace] = tracer.recent()
        assert response.status == "error"
        assert "total_ms" in response.timings
        assert trace["spans"][0]["attributes"]["status"] == "error"

    def test_payloads_identical_traced_vs_untraced(self, service, seed_entities):
        request = WalkRequest(entities=tuple(seed_entities[:4]), seed=9)
        untraced = service.serve(request)
        with tracing.armed():
            traced = service.serve(request)
        wire_type = type(request).wire_type
        assert json.dumps(
            payload_to_wire(wire_type, traced.payload), sort_keys=True
        ) == json.dumps(payload_to_wire(wire_type, untraced.payload), sort_keys=True)

    def test_untraced_wire_bytes_carry_no_trace_keys(self, service, seed_entities):
        """Byte parity with pre-tracing builds: tracing off => no new keys."""
        request = WalkRequest(entities=tuple(seed_entities[:2]), seed=1)
        response = service.serve(request)
        assert response.trace_id == ""
        envelope = json.loads(encode_response(response))
        assert "trace_id" not in envelope
        assert "trace" not in json.loads(encode_request(request))

    def test_traced_request_envelope_roundtrips_for_old_decoders(
        self, seed_entities
    ):
        """The trace field is additive: a decoder ignoring it still works."""
        from repro.serving.protocol import decode_request_envelope

        request = WalkRequest(entities=tuple(seed_entities[:2]), seed=4)
        wire = encode_request(request, trace=TraceContext("t-1", "s-1"))
        assert json.loads(wire)["trace"] == {"trace_id": "t-1", "span_id": "s-1"}
        assert decode_request_envelope(wire)[0] == request


def payload_slice(body: bytes) -> bytes:
    """The raw ``payload`` bytes of a sorted-key ok envelope."""
    start = body.index(b'"payload": ') + len(b'"payload": ')
    return body[start : body.rindex(b', "protocol": ')]


class TestLoopHitTracing:
    """Cache hits answered on the gateway's event loop trace like any other."""

    @pytest.fixture(scope="class")
    def loop_service(self, bundle_dir):
        # Its own cache: the module service's answers must stay misses
        # for the tests that expect worker spans.
        svc = ServingService(bundle_dir, mode="inline")
        yield svc
        svc.close()

    @staticmethod
    def front_door(service, raws: list[bytes]) -> list[bytes]:
        async def go():
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=8)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                return [(await http_roundtrip(host, port, raw))[2] for raw in raws]
            finally:
                await server.stop()
                gateway.close()

        return run(go())

    def test_loop_hit_records_the_span_chain(self, loop_service, seed_entities):
        raw = post_query(encode_request(WalkRequest(entities=tuple(seed_entities[:2]), seed=71)))
        self.front_door(loop_service, [raw])  # the miss fills the cache, untraced
        with tracing.armed() as tracer:
            [body] = self.front_door(loop_service, [raw])
            [trace] = tracer.recent()
        response = decode_response(body)
        assert response.ok and response.cached
        assert response.trace_id == trace["trace_id"]
        assert_single_well_formed_trace(trace, "gateway.request")
        by_name = {record["name"]: record for record in trace["spans"]}
        assert [r["name"] for r in trace["spans"]].count("serve.request") == 1
        assert by_name["serve.request"]["parent_id"] == by_name["gateway.request"]["span_id"]
        assert by_name["serve.cache"]["parent_id"] == by_name["serve.request"]["span_id"]
        assert by_name["serve.cache"]["attributes"]["hit"] is True
        assert by_name["serve.request"]["attributes"]["cached"] is True
        assert by_name["serve.cache"]["attributes"]["stage_ms"] == response.timings["cache_ms"]
        assert "worker.execute" not in by_name

    def test_traced_miss_keeps_one_serve_request_span(self, loop_service, seed_entities):
        raw = post_query(encode_request(WalkRequest(entities=tuple(seed_entities[:3]), seed=72)))
        with tracing.armed() as tracer:
            [body] = self.front_door(loop_service, [raw])
            [trace] = tracer.recent()
        response = decode_response(body)
        assert response.ok and not response.cached
        assert_single_well_formed_trace(trace, "gateway.request")
        serve_spans = [r for r in trace["spans"] if r["name"] == "serve.request"]
        assert len(serve_spans) == 1
        serve_id = serve_spans[0]["span_id"]
        children = {r["name"] for r in trace["spans"] if r["parent_id"] == serve_id}
        assert {"serve.cache", "serve.scatter", "serve.compute", "serve.gather"} <= children
        assert response.timings["total_ms"] <= serve_spans[0]["wall_ms"] + 1.0

    def test_payloads_identical_traced_vs_untraced_for_loop_hits(
        self, loop_service, every_request
    ):
        raws = [post_query(encode_request(request)) for request in every_request]
        untraced_misses = self.front_door(loop_service, raws)
        untraced_hits = self.front_door(loop_service, raws)
        with tracing.armed():
            traced_hits = self.front_door(loop_service, raws)
        for request, miss, hit, traced in zip(
            every_request, untraced_misses, untraced_hits, traced_hits
        ):
            name = type(request).__name__
            assert not json.loads(miss)["cached"], name
            assert json.loads(hit)["cached"] and json.loads(traced)["cached"], name
            assert "trace_id" not in json.loads(hit) and json.loads(traced)["trace_id"]
            assert payload_slice(hit) == payload_slice(miss), name
            assert payload_slice(traced) == payload_slice(miss), name
            direct = loop_service.serve(request)
            assert payload_slice(miss) == json.dumps(
                payload_to_wire(type(request).wire_type, direct.payload), sort_keys=True
            ).encode(), name


class TestCrossProcessStitching:
    @pytest.fixture(scope="class")
    def process_service(self, bundle_dir):
        svc = ServingService(
            bundle_dir, mode="process", num_workers=1
        )
        yield svc
        svc.close()

    def test_worker_spans_carry_child_pid_and_stitch(
        self, process_service, seed_entities
    ):
        request = WalkRequest(entities=tuple(seed_entities[:4]), seed=13)
        with tracing.armed() as tracer:
            response = process_service.serve(request)
            assert response.ok
            [trace] = tracer.recent()
        assert_single_well_formed_trace(trace, "serve.request")
        workers = [r for r in trace["spans"] if r["name"] == "worker.execute"]
        assert workers, trace
        shard_ids = {
            r["span_id"] for r in trace["spans"] if r["name"] == "serve.shard"
        }
        for record in workers:
            assert record["pid"] != os.getpid()  # executed in the child
            assert record["parent_id"] in shard_ids  # under its shard span
        assert tracer.counters()["spans_adopted"] >= len(workers)

    def test_process_payloads_identical_traced_vs_untraced(
        self, process_service, seed_entities
    ):
        request = NeighborhoodRequest(entities=tuple(seed_entities[:3]), hops=2)
        untraced = process_service.serve(request)
        with tracing.armed():
            traced = process_service.serve(request)
        wire_type = type(request).wire_type
        assert json.dumps(
            payload_to_wire(wire_type, traced.payload), sort_keys=True
        ) == json.dumps(payload_to_wire(wire_type, untraced.payload), sort_keys=True)

    def test_untraced_process_dispatch_ships_no_trace_machinery(
        self, process_service, seed_entities
    ):
        """Disarmed, the pool returns plain results (no wrapper futures)."""
        request = WalkRequest(entities=tuple(seed_entities[:2]), seed=21)
        response = process_service.serve(request)
        assert response.ok
        assert response.trace_id == ""


class TestBreakerObservability:
    def test_breaker_transitions_increment_metrics(self):
        metrics = MetricsRegistry()
        clock = [0.0]
        breaker = CircuitBreaker(
            "test",
            min_volume=1,
            failure_threshold=0.01,
            open_duration_s=10.0,
            clock=lambda: clock[0],
            metrics=metrics,
        )
        breaker.record_failure()
        assert metrics.counters["breaker.transitions"] == 1
        assert metrics.counters["breaker.transitions.closed->open"] == 1
        clock[0] = 11.0
        breaker.check()  # probes: open -> half_open
        breaker.record_success()
        assert metrics.counters["breaker.transitions"] == 3
        assert metrics.counters["breaker.transitions.half_open->closed"] == 1

    def test_breaker_transition_event_lands_on_current_span(self):
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            "evt", min_volume=1, failure_threshold=0.01, metrics=metrics
        )
        with tracing.armed() as tracer:
            with tracing.span("root"):
                breaker.record_failure()
            [trace] = tracer.recent()
        events = trace["spans"][0]["events"]
        assert any(
            e["name"] == "breaker.transition" and e["to"] == "open"
            for e in events
        ), events


PROM_LINE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? [0-9.eE+-]+$|^\+Inf$"
)


def parse_prometheus(text: str) -> dict[str, list[str]]:
    """Minimal 0.0.4 parser: {metric_name: [sample lines]}; asserts shape."""
    series: dict[str, list[str]] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4 and parts[3] in (
                "counter", "gauge", "summary", "histogram"
            ), line
            continue
        assert not line.startswith("#"), line
        match = PROM_LINE.match(line.replace("+Inf", "Inf"))
        assert match is not None, f"unparseable sample line: {line!r}"
        name = line.split("{")[0].split(" ")[0]
        series.setdefault(name, []).append(line)
    return series


class TestHTTPEndpoints:
    def test_metrics_endpoint_scrapes_as_prometheus_text(
        self, service, seed_entities
    ):
        service.serve(WalkRequest(entities=tuple(seed_entities[:2]), seed=2))

        async def go():
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=4)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                return await http_roundtrip(host, port, get("/metrics"))
            finally:
                await server.stop()
                gateway.close()

        status_line, head, body = run(go())
        assert status_line == b"HTTP/1.1 200 OK"
        assert b"text/plain" in head
        series = parse_prometheus(body.decode("utf-8"))
        assert "kg_serve_requests_total" in series
        assert "kg_serve_store_version" in series
        assert "kg_breaker_state" in series
        assert any('type="WalkRequest"' in line
                   for line in series["kg_serve_requests_by_type_total"])
        assert "kg_serve_latency_seconds_bucket" in series

    def test_debug_traces_endpoint(self, service, seed_entities):
        request = WalkRequest(entities=tuple(seed_entities[:3]), seed=31)

        async def go(raw_request: bytes):
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=4)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                await http_roundtrip(host, port, post_query(raw_request))
                return await http_roundtrip(host, port, get("/debug/traces"))
            finally:
                await server.stop()
                gateway.close()

        # Disarmed: the endpoint answers but is empty.
        _, _, body = run(go(encode_request(request)))
        disarmed = json.loads(body)
        assert disarmed["armed"] is False
        assert disarmed["recent"] == []

        with tracing.armed(Tracer()) as tracer:
            status_line, _, body = run(go(encode_request(request)))
        assert status_line == b"HTTP/1.1 200 OK"
        payload = json.loads(body)
        assert payload["armed"] is True
        assert payload["counters"]["traces_completed"] >= 1
        assert payload["recent"], payload
        trace = payload["recent"][0]
        assert_single_well_formed_trace(trace, "gateway.request")
        assert "serve.request" in span_names(trace)

    def test_every_request_type_yields_one_complete_gateway_trace(
        self, service, every_request
    ):
        async def go():
            gateway = AsyncGateway(service, max_concurrency=2, max_pending=8)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            results = []
            try:
                for request in every_request:
                    _, _, body = await http_roundtrip(
                        host, port, post_query(encode_request(request))
                    )
                    results.append((request, body))
            finally:
                await server.stop()
                gateway.close()
            return results

        with tracing.armed(Tracer(ring_capacity=64)) as tracer:
            results = run(go())
            traces = {t["trace_id"]: t for t in tracer.recent()}
            counters = tracer.counters()
        assert len(traces) == len(every_request)
        assert counters["traces_live"] == 0  # every trace completed
        for request, body in results:
            response = decode_response(body)
            assert response.ok, (type(request).__name__, response.error)
            assert response.trace_id in traces, type(request).__name__
            trace = traces[response.trace_id]
            assert_single_well_formed_trace(trace, "gateway.request")
            names = span_names(trace)
            assert {"gateway.request", "serve.request", "worker.execute"} <= names, (
                type(request).__name__,
                names,
            )
            root = trace["spans"][0]
            assert root["attributes"]["request_type"] == type(request).__name__
            # The envelope's own total reconciles with the serve span.
            serve_span = next(
                r for r in trace["spans"] if r["name"] == "serve.request"
            )
            assert response.timings["total_ms"] <= serve_span["wall_ms"] + 1.0

    def test_client_seeded_trace_context_joins_server_spans(
        self, service, seed_entities
    ):
        request = WalkRequest(entities=tuple(seed_entities[:2]), seed=8)
        wire = encode_request(request, trace=TraceContext("cli-trace", "cli-span"))

        async def go():
            gateway = AsyncGateway(service, max_concurrency=1, max_pending=2)
            server = GatewayHTTPServer(gateway)
            host, port = await server.start()
            try:
                return await http_roundtrip(host, port, post_query(wire))
            finally:
                await server.stop()
                gateway.close()

        with tracing.armed() as tracer:
            _, _, body = run(go())
            finished = tracer.spans_finished
        response = decode_response(body)
        assert response.ok
        # The server's spans joined the caller's distributed trace id.
        assert response.trace_id == "cli-trace"
        assert finished >= 2  # gateway.request + serve.request at least
