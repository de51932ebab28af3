#!/usr/bin/env python
"""CI smoke: boot the HTTP gateway and drive one request of every type.

Builds a small synthetic world (``GATEWAY_SMOKE_SCALE``, default 0.05),
persists it as a snapshot bundle — embedding layer included, so boot
exercises mmap adoption rather than training — boots the asyncio HTTP
front door on an ephemeral port and issues one wire request per protocol
type — walks,
neighborhoods, related entities, annotation, fact ranking, verification,
similarity and k-NN — twice, plus a malformed-JSON and a wrong-schema-version
probe.  Every answer must be a well-formed response envelope: ``ok`` with
a payload for the real requests, a structured error (never a traceback)
for the probes.  Each repeat must be a cache hit (``cached: true``) whose
raw payload bytes equal the first answer's.  Exits non-zero on any
violation.

Run directly (CI does): ``PYTHONPATH=src python benchmarks/gateway_smoke.py``
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from repro.embeddings.suite import ADOPTED
from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.persistence import save_snapshot
from repro.serving.gateway import AsyncGateway, GatewayHTTPServer
from repro.serving.protocol import decode_response, encode_request
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

SCALE = float(os.environ.get("GATEWAY_SMOKE_SCALE", "0.05"))


async def http_post(host: str, port: int, path: str, body: bytes) -> tuple[str, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        (
            f"POST {path} HTTP/1.1\r\nHost: smoke\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode("latin-1"), payload


async def http_get(host: str, port: int, path: str) -> tuple[str, str, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    return lines[0].decode("latin-1"), head.decode("latin-1"), payload


def payload_bytes(body: bytes) -> bytes:
    """The raw ``payload`` value of a sorted-key ok envelope: after the
    ``"payload"`` key, up to the ``"protocol"`` key that follows it."""
    start = body.index(b'"payload": ') + len(b'"payload": ')
    return body[start : body.rindex(b', "protocol": ')]


# Every Prometheus series the serving stack promises after one request of
# each type has been answered (README "Observability" catalogues these).
EXPECTED_METRIC_SERIES = (
    "kg_gateway_requests_total",
    "kg_serve_requests_total",
    "kg_serve_requests_by_type_total",
    "kg_serve_responses_by_status_total",
    "kg_pool_requests_total",
    "kg_pool_requests_by_type_total",
    "kg_serve_latency_seconds_bucket",
    "kg_serve_latency_seconds_sum",
    "kg_serve_latency_seconds_count",
    "kg_serve_store_version",
    "kg_serve_cache_entries",
    "kg_serve_workers",
    "kg_breaker_state",
)

SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*'          # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'  # first label
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'  # more labels
    r" [0-9.eE+-]+$"                    # value
)


def check_metrics_text(text: str, request_names: list[str]) -> list[str]:
    """Parse a /metrics body; returns failure strings (empty = healthy)."""
    failures: list[str] = []
    seen: set[str] = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "summary", "histogram"
            ):
                failures.append(f"/metrics: malformed TYPE line {line!r}")
            continue
        if line.startswith("#"):
            failures.append(f"/metrics: unexpected comment line {line!r}")
            continue
        if SAMPLE_LINE.match(line.replace("+Inf", "999")) is None:
            failures.append(f"/metrics: unparseable sample line {line!r}")
            continue
        seen.add(line.split("{")[0].split(" ")[0])
    for series in EXPECTED_METRIC_SERIES:
        if series not in seen:
            failures.append(f"/metrics: expected series {series} missing")
    for name in request_names:
        wanted = f'kg_serve_requests_by_type_total{{type="{name}"}}'
        if not any(line.startswith(wanted) for line in text.splitlines()):
            failures.append(f"/metrics: no per-type sample for {name}")
    return failures


def build_requests(service: ServingService) -> list:
    """One servable request per wire type, derived from the live bundle."""
    state = service._pool.local_state
    entities = sorted(state.snapshot.store.entity_ids())[:8]
    names = [state.snapshot.store.entity(e).name for e in entities[:3]]
    suite = state.embedding_suite()  # adopts the persisted embedding layer
    dataset = suite.trained.dataset
    triples = [dataset.decode(*map(int, row)) for row in dataset.triples[:3]]
    return [
        WalkRequest(entities=tuple(entities[:4]), seed=7),
        NeighborhoodRequest(entities=tuple(entities[:3]), hops=2),
        RelatedRequest(entities=tuple(entities[:2]), k=5),
        AnnotateRequest(texts=(f"{names[0]} met {names[1]} and {names[2]}.",)),
        FactRankRequest(entities=(triples[0][0],), predicate=dataset.relations[0]),
        VerifyRequest(candidates=tuple(triples)),
        SimilarityRequest(pairs=((dataset.entities[0], dataset.entities[1]),)),
        KnnRequest(entities=(dataset.entities[0],), k=3),
    ]


async def smoke(service: ServingService) -> list[str]:
    failures: list[str] = []
    gateway = AsyncGateway(service, max_concurrency=2, max_pending=16)
    server = GatewayHTTPServer(gateway)
    host, port = await server.start()
    print(f"gateway up on http://{host}:{port} (store_version={service.store_version})")
    try:
        # The bundle carries a persisted embedding layer; the worker must
        # mmap-adopt it, never retrain at boot.
        suite = service._pool.local_state.embedding_suite()
        if suite.source != ADOPTED:
            failures.append(
                f"embedding suite was {suite.source!r}, expected adoption "
                "from the persisted layer"
            )
        else:
            print("  ok  embedding layer adopted (no boot-time training)")
        for request in build_requests(service):
            name = type(request).__name__
            status, body = await http_post(
                host, port, "/v1/query", encode_request(request)
            )
            try:
                response = decode_response(body)
            except Exception as exc:
                failures.append(f"{name}: un-decodable envelope ({exc})")
                continue
            if status != "HTTP/1.1 200 OK" or not response.ok:
                failures.append(f"{name}: {status}, error={response.error}")
                continue
            if response.payload is None or "total_ms" not in response.timings:
                failures.append(f"{name}: envelope missing payload/timings")
                continue
            # The same request again is a cache hit, answered on the event
            # loop with the entry's spliced payload JSON: the payload bytes
            # on the wire must be the miss's, byte for byte.
            hit_status, hit_body = await http_post(
                host, port, "/v1/query", encode_request(request)
            )
            hit = decode_response(hit_body)
            if hit_status != "HTTP/1.1 200 OK" or not hit.ok or not hit.cached:
                failures.append(f"{name}: repeat was not a cache hit ({hit_status})")
                continue
            if payload_bytes(hit_body) != payload_bytes(body):
                failures.append(f"{name}: cache-hit payload bytes differ from the miss's")
                continue
            print(f"  ok  {name:<22} total_ms={response.timings['total_ms']:.2f}, "
                  f"hit {hit.timings['total_ms']:.2f} (payload bytes identical)")

        # After all eight types answered, the /metrics scrape must be
        # parseable Prometheus text carrying every promised series.
        request_names = [type(r).__name__ for r in build_requests(service)]
        status, head, body = await http_get(host, port, "/metrics")
        if status != "HTTP/1.1 200 OK":
            failures.append(f"/metrics: {status}")
        elif "text/plain" not in head:
            failures.append(f"/metrics: wrong content type in {head!r}")
        else:
            metric_failures = check_metrics_text(body.decode("utf-8"), request_names)
            failures.extend(metric_failures)
            if not metric_failures:
                sample_count = sum(
                    1
                    for line in body.decode("utf-8").splitlines()
                    if line and not line.startswith("#")
                )
                print(f"  ok  /metrics               {sample_count} samples, "
                      f"all expected series present")

        for label, payload, want_code in (
            ("malformed JSON", b"{nope", "bad_request"),
            (
                "wrong schema version",
                json.dumps(
                    {"protocol": 99, "type": "walk", "body": {"entities": []}}
                ).encode(),
                "unsupported_version",
            ),
        ):
            status, body = await http_post(host, port, "/v1/query", payload)
            envelope = json.loads(body)
            if b"Traceback" in body:
                failures.append(f"{label}: traceback leaked across the wire")
            elif envelope.get("status") != "error" or (
                envelope.get("error", {}).get("code") != want_code
            ):
                failures.append(f"{label}: expected {want_code} envelope, got {envelope}")
            else:
                print(f"  ok  {label:<22} rejected with {want_code}")
    finally:
        await server.stop()
        gateway.close()
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="gateway-smoke-") as tmp:
        bundle = Path(tmp) / "bundle"
        kg = generate_kg(SyntheticKGConfig(seed=7, scale=SCALE))
        save_snapshot(kg.store, bundle)
        with ServingService(bundle, mode="inline") as service:
            failures = asyncio.run(smoke(service))
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ngateway smoke: all request types answered with well-formed envelopes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
