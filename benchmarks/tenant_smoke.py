#!/usr/bin/env python
"""CI smoke: ~50 tenant overlays behind the HTTP gateway, zero leaks.

Boots the asyncio HTTP front door over a delta-chain bundle with
multi-tenant serving enabled, onboards ``TENANT_SMOKE_TENANTS`` tenants
through ``POST /v1/query`` (upserts + device sync rounds), then runs
client loops that interleave tenant-scoped reads, shared reads and
health polls while the main thread publishes shared generations and
hot-swaps them into the live service.  Every tenant carries a **canary**:
a personal record linking its fused person to one shared entity that no
other tenant links.  The smoke fails unless:

* **zero** requests fail across onboarding, syncs, reads and both
  generation swaps;
* no tenant ever observes another tenant's canary link (and the shared
  graph never grows a personal person node), and every walk from a
  tenant's person takes its first step to that tenant's own link (tenant
  views share the base's row objects, so a row leaked between tenants
  shows here) — checked continuously by the client loops and again by a
  full sweep at the end;
* ``store_version`` on ``/healthz`` only ever advances, and tenant
  answers survive the swaps (append-only shared ids keep overlays valid);
* the shared bundle and every tenant bundle pass :mod:`repro.kg.fsck`
  at exit.

The tenant count deliberately exceeds the service's resident-tenant LRU
capacity (32), so the run also exercises evict/cold-attach under load.

Run directly (CI does): ``PYTHONPATH=src python benchmarks/tenant_smoke.py``
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.common import ids
from repro.kg.deltas import GenerationPublisher
from repro.kg.fsck import check_bundle
from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.triple import entity_fact
from repro.serving.gateway import AsyncGateway, GatewayHTTPServer
from repro.serving.protocol import decode_response, encode_request
from repro.serving.requests import (
    NeighborhoodRequest,
    PersonalRecord,
    TenantSyncRequest,
    TenantUpsertRequest,
    WalkRequest,
)
from repro.serving.service import ServingService

SCALE = float(os.environ.get("TENANT_SMOKE_SCALE", "0.2"))
TENANTS = int(os.environ.get("TENANT_SMOKE_TENANTS", "50"))
SWAPS = int(os.environ.get("TENANT_SMOKE_SWAPS", "2"))

RELATED = ids.predicate_id("related_to")
PERSON = ids.entity_id("personal/person-0000")


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


def tenant_id(n: int) -> str:
    return f"assistant-{n:03d}"


def canary_record(n: int, link: str) -> PersonalRecord:
    return PersonalRecord(
        record_id=f"canary-{n:03d}",
        source="contacts",
        fields=(
            ("first_name", f"Canary{n:03d}"),
            ("last_name", "Holder"),
            ("linked_entity", link),
            ("phone", f"+1-555-0{n:03d}"),
        ),
        sequence=1,
    )


async def query(host, port, request, tenant=None):
    body = encode_request(request, tenant=tenant)
    status, payload = await http_post(host, port, "/v1/query", body)
    return status, decode_response(payload)


async def smoke(bundle: Path, tenants_dir: Path) -> list[str]:
    failures: list[str] = []
    kg = generate_kg(SyntheticKGConfig(seed=29, scale=SCALE))
    store = kg.store
    publisher = GenerationPublisher(store, bundle)
    service = ServingService(
        bundle, mode="inline", tenants_dir=tenants_dir
    )
    gateway = AsyncGateway(service, max_concurrency=4, max_pending=64)
    server = GatewayHTTPServer(gateway)
    host, port = await server.start()

    entities = sorted(store.entity_ids())
    if len(entities) < TENANTS:
        raise SystemExit(
            f"world too small: {len(entities)} entities < {TENANTS} tenants"
        )
    # One distinct shared link target per tenant: seeing someone else's
    # target inside your person's neighborhood is an isolation leak.
    links = {n: entities[n] for n in range(TENANTS)}
    print(
        f"gateway up on http://{host}:{port} "
        f"(store_version={service.store_version}, tenants={TENANTS}, "
        f"scale={SCALE})"
    )

    # -- onboard every tenant through the wire ---------------------------
    for n in range(TENANTS):
        request = TenantUpsertRequest(records=(canary_record(n, links[n]),))
        status, response = await query(host, port, request, tenant=tenant_id(n))
        if status != 200 or not response.ok:
            failures.append(f"onboard {tenant_id(n)} failed: {response.error}")
        elif response.payload.get("applied") != 1:
            failures.append(f"onboard {tenant_id(n)} applied nothing")

    # -- one device sync round for every 5th tenant ----------------------
    syncs_ok = 0
    for n in range(0, TENANTS, 5):
        device_record = PersonalRecord(
            record_id=f"device-{n:03d}",
            source="calendar",
            fields=(("first_name", f"Meeting{n:03d}"), ("last_name", "Sync")),
            sequence=2,
        )
        request = TenantSyncRequest(records=(device_record,), epsilon=1.0)
        status, response = await query(host, port, request, tenant=tenant_id(n))
        if status != 200 or not response.ok:
            failures.append(f"sync {tenant_id(n)} failed: {response.error}")
            continue
        payload = response.payload
        if "dp_record_count" not in payload:
            failures.append(f"sync {tenant_id(n)} payload lacks dp_record_count")
        else:
            syncs_ok += 1
    print(f"  {TENANTS} tenants onboarded, {syncs_ok} device syncs answered")

    hood = NeighborhoodRequest(entities=(PERSON,), hops=1)
    walk = WalkRequest(entities=(PERSON,), walk_length=4, walks_per_entity=4, seed=3)
    foreign = {n: {links[m] for m in links if m != n} for n in range(TENANTS)}
    reads_ok = [0]
    versions: list[int] = []
    stop = asyncio.Event()

    async def check_tenant(n: int) -> None:
        status, response = await query(host, port, hood, tenant=tenant_id(n))
        if status != 200 or not response.ok:
            failures.append(f"read {tenant_id(n)} failed: {response.error}")
            return
        nodes = set(response.payload[0])
        if links[n] not in nodes:
            failures.append(f"{tenant_id(n)} lost its own canary link")
        leaked = nodes & foreign[n]
        if leaked:
            failures.append(f"{tenant_id(n)} sees foreign canaries: {sorted(leaked)}")
        status, response = await query(host, port, walk, tenant=tenant_id(n))
        if status != 200 or not response.ok:
            failures.append(f"walk {tenant_id(n)} failed: {response.error}")
            return
        first_steps = {tuple(w[:2]) for w in response.payload[0]}
        if first_steps != {(PERSON, links[n])}:
            failures.append(f"{tenant_id(n)} walks stepped to {sorted(first_steps)}")
        reads_ok[0] += 1

    async def client_loop(offset: int) -> None:
        n = offset
        while not stop.is_set():
            await check_tenant(n % TENANTS)
            # The shared graph must never see a tenant's fused person.
            status, response = await query(host, port, hood)
            if status != 200 or not response.ok:
                failures.append(f"shared read failed: {response.error}")
            elif set(response.payload[0]):
                failures.append("shared graph grew a personal person node")
            hstatus, hbody = await http_get(host, port, "/healthz")
            if hstatus != 200:
                failures.append(f"/healthz went {hstatus} mid-swap")
            else:
                versions.append(int(json.loads(hbody)["store_version"]))
            n += 7  # co-prime stride: loops sweep different tenants
            await asyncio.sleep(0)

    def swap_generation(round_no: int) -> int:
        fact = entity_fact(
            entities[0], RELATED, entities[TENANTS + round_no],
            confidence=0.9, sources=("tenant-smoke",), updated_at=float(round_no),
        )
        store.add(fact)
        publisher.record(keys=[fact.key])
        info = publisher.publish()
        publisher.join_compaction()
        service.adopt_generation(bundle)
        print(f"  gen seq={info.seq} store_version={info.store_version} adopted")
        return info.store_version

    loop = asyncio.get_running_loop()
    clients = [asyncio.create_task(client_loop(i * 17)) for i in range(3)]
    try:
        for round_no in range(SWAPS):
            await loop.run_in_executor(None, swap_generation, round_no)
            await asyncio.sleep(0.05)  # let clients hammer the new generation
    finally:
        stop.set()
        await asyncio.gather(*clients, return_exceptions=True)

    print(
        f"  {reads_ok[0]} tenant reads + {len(versions)} health polls "
        f"answered across {SWAPS} generation swaps"
    )
    if reads_ok[0] == 0:
        failures.append("client loops never completed a tenant read")
    if any(b < a for a, b in zip(versions, versions[1:])):
        failures.append(f"store_version regressed mid-swap: {versions}")
    if len(set(versions)) < 2:
        failures.append("clients never observed a generation advance")

    # -- final canary sweep: all tenants, post-swap ----------------------
    for n in range(TENANTS):
        await check_tenant(n)
    if not failures:
        print(
            f"  ok  {TENANTS}-tenant canary sweep (neighbourhoods and walks) "
            f"clean after {SWAPS} swaps"
        )

    await server.stop()
    gateway.close()
    service.close()
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="tenant-smoke-") as tmp:
        bundle, tenants_dir = Path(tmp) / "bundle", Path(tmp) / "tenants"
        failures = asyncio.run(smoke(bundle, tenants_dir))
        # Integrity at exit: the shared chain and every tenant chain.
        bundles = [bundle, *sorted(tenants_dir.iterdir())]
        failures += [f"fsck: {problem}" for b in bundles for problem in check_bundle(b)]
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures[:20]:
            print(f"  - {failure}", file=sys.stderr)
        if len(failures) > 20:
            print(f"  ... and {len(failures) - 20} more", file=sys.stderr)
        return 1
    print(
        f"\ntenant smoke: {TENANTS} tenants served across {SWAPS} live "
        "generation swaps with zero failed requests and zero leaks"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
