#!/usr/bin/env python
"""CI smoke: live growth through the HTTP gateway with zero dropped requests.

Builds a small deployed world with held-out facts, boots the asyncio HTTP
front door over a delta-chain bundle, then streams ``GROWTH_SMOKE_GENERATIONS``
ODKE extraction rounds through a :class:`GrowthDriver` — each published
generation is hot-swapped into the live service while a client loop hammers
``POST /v1/query`` and polls ``GET /healthz`` the whole time.  The smoke
fails unless:

* **zero** requests fail across every generation swap;
* the ``store_version`` observed on ``/healthz`` only ever advances, and
  ends at the publisher's tip;
* the final generation's graph and annotation answers are byte-identical
  to a service booted from a from-scratch full snapshot of the same store;
* its embedding-family answers (fact rank, verify, similarity, k-NN)
  equal a replay of the chain — a fresh service loading the same base and
  deltas — and still do after ``publisher.compact()``, so no generation
  retrains;
* both bundles pass :mod:`repro.kg.fsck` at exit.

Run directly (CI does): ``PYTHONPATH=src python benchmarks/growth_smoke.py``
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.annotation.pipeline import make_pipeline
from repro.common import ids
from repro.kg.deltas import GenerationPublisher
from repro.kg.fsck import check_bundle
from repro.kg.generator import SyntheticKGConfig, generate_kg, hold_out_facts
from repro.kg.persistence import load_snapshot, save_snapshot
from repro.kg.triple import ObjectKind, entity_fact
from repro.odke.gaps import ExtractionTarget
from repro.odke.live import GrowthDriver
from repro.odke.pipeline import ODKEConfig, ODKEPipeline
from repro.serving.gateway import AsyncGateway, GatewayHTTPServer
from repro.serving.protocol import decode_response, encode_request, encode_response
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
from repro.web.corpus import WebCorpusConfig, generate_corpus
from repro.web.search import BM25SearchEngine

SCALE = float(os.environ.get("GROWTH_SMOKE_SCALE", "0.3"))
GENERATIONS = int(os.environ.get("GROWTH_SMOKE_GENERATIONS", "4"))

DOB = ids.predicate_id("date_of_birth")
POB = ids.predicate_id("place_of_birth")
RELATED = ids.predicate_id("related_to")


async def http_get(host: str, port: int, path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n")[0].split(b" ")[1])
    return status, payload


async def http_post(host: str, port: int, path: str, body: bytes) -> tuple[int, bytes]:
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
    status = int(head.split(b"\r\n")[0].split(b" ")[1])
    return status, payload


def build_world():
    """Deployed store with gaps, its ODKE pipeline, and extraction targets."""
    kg = generate_kg(SyntheticKGConfig(seed=19, scale=SCALE))
    deployed, held_out = hold_out_facts(kg, fraction=0.3, seed=13)
    corpus = generate_corpus(
        kg,
        WebCorpusConfig(
            seed=11,
            num_profile_pages=max(8, round(80 * SCALE)),
            num_news_pages=max(8, round(120 * SCALE)),
            num_blog_pages=max(4, round(60 * SCALE)),
            num_list_pages=max(2, round(12 * SCALE)),
            num_distractor_pages=max(2, round(16 * SCALE)),
        ),
    )
    pipeline = ODKEPipeline(
        deployed,
        kg.ontology,
        BM25SearchEngine(corpus),
        make_pipeline(deployed, tier="full"),
        config=ODKEConfig(use_trained_model=False),
        now=kg.now,
    )
    targets = sorted(
        (
            ExtractionTarget(entity=fact.subject, predicate=fact.predicate, priority=1.0)
            for fact in held_out
            if fact.predicate in (DOB, POB)
        ),
        key=lambda t: (t.entity, t.predicate),
    )
    return deployed, pipeline, targets


def probe_requests(store):
    """Adjacency/annotation probes, checked against a full rebuild."""
    entities = sorted(store.entity_ids())[:6]
    names = [store.entity(e).name for e in entities[:3]]
    return [
        WalkRequest(entities=tuple(entities[:4]), seed=7),
        NeighborhoodRequest(entities=tuple(entities[:3]), hops=2),
        RelatedRequest(entities=tuple(entities[:2]), k=5),
        AnnotateRequest(texts=(f"{names[0]} met {names[1]} and {names[2]}.",)),
    ]


def embedding_probes(store):
    """Embedding-family probes over entity-valued facts of the grown store,
    checked against a replay of the chain."""
    facts = sorted(
        (fact for fact in store.scan() if fact.obj_kind is ObjectKind.ENTITY),
        key=lambda fact: fact.key,
    )[:4]
    subjects = tuple(sorted({fact.subject for fact in facts}))
    return [
        FactRankRequest(entities=subjects[:2], predicate=facts[0].predicate),
        VerifyRequest(candidates=tuple(fact.key for fact in facts)),
        SimilarityRequest(pairs=tuple((fact.subject, fact.obj) for fact in facts[:2])),
        KnnRequest(entities=subjects[:2], k=5),
    ]


def compare(bundle: Path, requests, answers, against: str) -> list[str]:
    """Serve ``requests`` from a fresh inline service over ``bundle`` and
    compare each with the gateway's answer (``None``: the probe failed)."""
    failures = []
    with ServingService(bundle, mode="inline") as fresh:
        for request, chained in zip(requests, answers):
            if chained is None:
                continue
            # Push the fresh answer through the same wire round-trip the
            # gateway applied (annotation links drop server-side candidate
            # lists at the boundary) so both sides compare in identical form.
            response = decode_response(encode_response(fresh.serve(request)))
            name = type(request).__name__
            if not response.ok:
                failures.append(f"{against} probe {name} failed: {response.error}")
            elif (response.store_version, canon(response.payload)) != chained:
                failures.append(f"{name}: delta-chain answer != {against} answer")
            else:
                print(f"  ok  {name:<22} byte-identical to {against}")
    return failures


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    try:
        return list(obj)
    except TypeError:
        return repr(obj)


def canon(payload) -> bytes:
    """Canonical bytes of a payload: wire-decoded and in-process answers
    (typed dataclasses, tuples) must collapse to the same JSON."""
    return json.dumps(payload, sort_keys=True, default=_jsonable).encode("utf-8")


async def smoke(bundle: Path, fresh_bundle: Path) -> list[str]:
    failures: list[str] = []
    deployed, pipeline, targets = build_world()
    publisher = GenerationPublisher(deployed, bundle)
    service = ServingService(bundle, mode="inline")
    gateway = AsyncGateway(service, max_concurrency=4, max_pending=64)
    server = GatewayHTTPServer(gateway)
    host, port = await server.start()
    print(
        f"gateway up on http://{host}:{port} "
        f"(store_version={service.store_version}, scale={SCALE})"
    )

    query = encode_request(NeighborhoodRequest(entities=(sorted(deployed.entity_ids())[0],), hops=1))
    versions: list[int] = []
    requests_ok = [0]
    stop = asyncio.Event()

    async def client_loop():
        while not stop.is_set():
            status, body = await http_post(host, port, "/v1/query", query)
            response = decode_response(body)
            if status != 200 or not response.ok:
                failures.append(
                    f"query failed mid-growth: http={status} "
                    f"error={response.error}"
                )
            else:
                requests_ok[0] += 1
            hstatus, hbody = await http_get(host, port, "/healthz")
            if hstatus != 200:
                failures.append(f"/healthz went {hstatus} mid-growth")
            else:
                versions.append(int(json.loads(hbody)["store_version"]))
            await asyncio.sleep(0)

    def adopt(info):
        service.adopt_generation(bundle)
        print(f"  gen seq={info.seq} store_version={info.store_version} adopted")

    driver = GrowthDriver(pipeline, publisher, on_generation=adopt)
    loop = asyncio.get_running_loop()
    clients = [asyncio.create_task(client_loop()) for _ in range(3)]

    def one_round(round_no: int) -> None:
        chunk = targets[round_no * 10 : round_no * 10 + 10]
        step = driver.step(chunk)
        if not step.published:
            # Smoke-scale extraction can come up dry on a chunk; the
            # generation still has to advance so the swap path is
            # exercised — grow one synthetic edge and flush.
            entity_ids = sorted(deployed.entity_ids())
            fact = entity_fact(
                entity_ids[0], RELATED, entity_ids[1 + round_no],
                confidence=0.9, sources=("growth-smoke",), updated_at=float(round_no),
            )
            deployed.add(fact)
            publisher.record(keys=[fact.key])
            assert driver.flush() is not None

    try:
        for round_no in range(GENERATIONS):
            await loop.run_in_executor(None, one_round, round_no)
        # Let the clients observe the final generation before stopping.
        while versions and versions[-1] != publisher.tip_version and not failures:
            await asyncio.sleep(0.01)
    finally:
        stop.set()
        await asyncio.gather(*clients, return_exceptions=True)

    print(
        f"  {requests_ok[0]} queries + {len(versions)} health polls answered "
        f"across {GENERATIONS} generation swaps"
    )
    if requests_ok[0] == 0:
        failures.append("client loop never completed a successful query")
    if any(b > a for a, b in zip(versions[1:], versions)):
        failures.append(f"store_version regressed mid-growth: {versions}")
    if versions and versions[-1] != publisher.tip_version:
        failures.append(
            f"final observed version {versions[-1]} != tip {publisher.tip_version}"
        )
    if len(set(versions)) < 2:
        failures.append("client never observed a generation advance")
    if not failures:
        print(f"  ok  store_version advanced {versions[0]} -> {versions[-1]}, zero drops")

    # Final answers: graph families against a from-scratch full rebuild,
    # embedding families against a replay of the chain.
    graph_probes = probe_requests(deployed)
    embedded_probes = embedding_probes(deployed)
    probes = graph_probes + embedded_probes
    gateway_answers = []
    for request in probes:
        status, body = await http_post(host, port, "/v1/query", encode_request(request))
        response = decode_response(body)
        if status != 200 or not response.ok:
            failures.append(f"final probe {type(request).__name__} failed: {response.error}")
            gateway_answers.append(None)
            continue
        gateway_answers.append((response.store_version, canon(response.payload)))

    await server.stop()
    gateway.close()
    service.close()

    save_snapshot(deployed, fresh_bundle, layers=("adjacency", "context", "alias"))
    graph_answers = gateway_answers[: len(graph_probes)]
    embedded_answers = gateway_answers[len(graph_probes) :]
    failures += compare(fresh_bundle, graph_probes, graph_answers, "full rebuild")
    if load_snapshot(bundle).embeddings is None:
        failures.append("the chain tip carries no embeddings layer: workers would retrain")
    failures += compare(bundle, embedded_probes, embedded_answers, "chain replay")
    publisher.compact()
    failures += compare(bundle, embedded_probes, embedded_answers, "compacted chain")
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="growth-smoke-") as tmp:
        bundles = [Path(tmp) / "bundle", Path(tmp) / "fresh-bundle"]
        failures = asyncio.run(smoke(*bundles))
        # Integrity at exit: chain linkage, checksums, row order, ids.
        failures += [f"fsck: {problem}" for b in bundles for problem in check_bundle(b)]
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"\ngrowth smoke: {GENERATIONS} generations streamed with zero dropped "
        "requests; final graph answers byte-identical to a full rebuild, "
        "embedding answers to the chain's replay and its compaction"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
