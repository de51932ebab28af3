"""A virtual assistant over the serving gateway (the Figure 2 scenario,
at production shape).

The paper's flagship example: an assistant that answers over **both** the
big shared knowledge graph and the user's small personal one — contacts,
calendar entries — without the personal facts ever entering the shared
graph.  Everything here goes through the real HTTP front door:

1. boot the gateway over a shared-graph bundle with tenancy enabled;
2. create a tenant and sync personal records from two devices
   (last-writer-wins, DP-noised counts in the telemetry);
3. ask fused questions — personal neighbors at hop 1, shared knowledge
   reachable *through* a personal link at hop 2;
4. delete a contact (right to be forgotten) and watch the answer change;
5. verify the shared graph never saw any of it.

Run:  PYTHONPATH=src python examples/virtual_assistant.py
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.persistence import save_snapshot
from repro.serving.gateway import AsyncGateway, GatewayHTTPServer
from repro.serving.protocol import decode_response, encode_request
from repro.serving.requests import (
    NeighborhoodRequest,
    PersonalRecord,
    TenantDeleteRequest,
    TenantSyncRequest,
)
from repro.serving.service import ServingService

TENANT = "demo-user"


class AssistantClient:
    """A thin HTTP client: one tenant's assistant talking to the gateway."""

    def __init__(self, host: str, port: int, tenant: str) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant

    async def _post(self, body: bytes) -> bytes:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(
            (
                "POST /v1/query HTTP/1.1\r\nHost: assistant\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        _head, _, payload = raw.partition(b"\r\n\r\n")
        return payload

    async def ask(self, request, *, personal: bool = True):
        tenant = self.tenant if personal else None
        response = decode_response(
            await self._post(encode_request(request, tenant=tenant))
        )
        if not response.ok:
            raise RuntimeError(f"{type(request).__name__} failed: {response.error}")
        return response.payload

    async def sync(self, records: tuple[PersonalRecord, ...]):
        """One device->server sync round; returns the server's payload."""
        return await self.ask(TenantSyncRequest(records=records, epsilon=1.0))

    async def forget(self, source: str, record_id: str, sequence: int):
        return await self.ask(
            TenantDeleteRequest(source=source, record_id=record_id, sequence=sequence)
        )


def contact(record_id: str, name: str, linked_entity: str, seq: int = 1):
    first, _, last = name.partition(" ")
    return PersonalRecord(
        record_id=record_id,
        source="contacts",
        fields=(
            ("first_name", first),
            ("last_name", last or "…"),
            ("linked_entity", linked_entity),
        ),
        sequence=seq,
    )


async def run(bundle: Path, tenants_dir: Path) -> None:
    kg = generate_kg(SyntheticKGConfig(seed=7, scale=0.2))
    save_snapshot(kg.store, bundle, layers=("adjacency", "context", "alias"))
    service = ServingService(
        bundle, mode="inline", tenants_dir=tenants_dir
    )
    gateway = AsyncGateway(service, max_concurrency=4, max_pending=64)
    server = GatewayHTTPServer(gateway)
    host, port = await server.start()
    print(f"gateway up on http://{host}:{port} (store_version={service.store_version})\n")

    # Two public figures from the shared graph become personal contacts.
    celebs = sorted(kg.store.entity_ids())[:2]
    names = {e: kg.store.entity(e).name for e in celebs}
    assistant = AssistantClient(host, port, TENANT)

    # -- sync personal records from the user's phone ---------------------
    phone = (
        contact("c-anna", f"Anna {names[celebs[0]].split()[-1]}", celebs[0]),
        contact("c-ben", "Ben Meyer", celebs[1]),
    )
    payload = await assistant.sync(phone)
    people = {p["name"]: p["entity"] for p in payload["people"]}
    print(f"phone synced {len(phone)} contacts -> tenant v{payload['tenant_version']}")
    print(f"  fused people: {sorted(people)}")
    print(f"  DP-noised record count (telemetry): {payload['dp_record_count']:.1f}")

    # A second device syncs later and learns everything the phone knew.
    laptop = await assistant.sync(())
    print(f"laptop joined: received {len(laptop['records'])} records from the server\n")

    # -- fused answers: personal links at hop 1 --------------------------
    anna_name = next(n for n in people if n.startswith("Anna"))
    anna = people[anna_name]
    hood = await assistant.ask(NeighborhoodRequest(entities=(anna,), hops=1))
    assert celebs[0] in hood[0], "personal link missing from fused answer"
    print(f"Q: Who is {anna_name} connected to?")
    print(f"A: {names[celebs[0]]} (via the contacts link) — {len(hood[0])} facts\n")

    # ... and shared knowledge reachable *through* that link at hop 2.
    hood2 = await assistant.ask(NeighborhoodRequest(entities=(anna,), hops=2))
    shared_reached = [n for n in hood2[0] if n in kg.store.entity_ids() and n != celebs[0]]
    assert shared_reached, "hop 2 never reached the shared graph"
    print("Q: What does the shared graph know about Anna's circle?")
    print(
        f"A: {len(shared_reached)} shared entities reachable through one "
        f"personal link, e.g. {kg.store.entity(shared_reached[0]).name}\n"
    )

    # -- right to be forgotten -------------------------------------------
    await assistant.forget("contacts", "c-ben", sequence=2)
    after = await assistant.sync(())
    assert all(r["record_id"] != "c-ben" for r in after["records"])
    assert ["contacts", "c-ben", 2] in after["tombstones"]
    print("'Ben Meyer' deleted: the record is gone and every device will learn it")

    # -- and the shared graph saw none of it -----------------------------
    shared = await assistant.ask(
        NeighborhoodRequest(entities=(anna,), hops=1), personal=False
    )
    assert shared[0] == [], "personal person leaked into the shared graph"
    print("shared graph asked about Anna: knows nothing — personal facts stay personal")

    await server.stop()
    gateway.close()
    service.close()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="assistant-") as tmp:
        asyncio.run(run(Path(tmp) / "bundle", Path(tmp) / "tenants"))


if __name__ == "__main__":
    main()
