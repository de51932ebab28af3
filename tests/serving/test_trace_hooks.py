"""The front-door benchmark's span recorders still find their layers.

``perfbench/spans.py`` wraps request-path entry points by name
(``ServingService.serve``, ``QueryCache.get``, ``TenantRegistry.execute_on``,
…).  A rename or a bypass would silently empty a layer of the traced
breakdown, so this drives every request shape through a traced gateway
in a fresh interpreter and checks each wrapped layer recorded a span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

_SCRIPT = r"""
import asyncio, json, sys
from pathlib import Path

import spans

out = Path(sys.argv[1])
spans.install(out)

from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.persistence import save_snapshot
from repro.serving import gateway
from repro.serving.service import ServingService

kg = generate_kg(SyntheticKGConfig(seed=7, scale=0.05))
save_snapshot(kg.store, out / "bundle")
entities = sorted(kg.store.entity_ids())[:3]
name = kg.store.entity(entities[0]).name
record = {"record_id": "r1", "source": "contacts",
          "fields": [["first_name", "Ada"], ["linked_entity", entities[0]]]}
queries = [
    ({"type": "walk", "body": {"entities": entities, "seed": 3}}, None),
    ({"type": "annotate", "body": {"texts": [f"{name} spoke."]}}, None),
    ({"type": "tenant_upsert", "body": {"records": [record]}}, "ada"),
    ({"type": "tenant_sync", "body": {}}, "ada"),
    ({"type": "neighborhood", "body": {"entities": entities}}, "ada"),
]


async def drive(server):
    host, port = await server.start()
    statuses = []
    for envelope, tenant in queries:
        envelope = dict(envelope, protocol=1)
        if tenant is not None:
            envelope["tenant"] = tenant
        body = json.dumps(envelope).encode()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            b"POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        )
        await writer.drain()
        # Frame by Content-Length: a forked worker inherits the socket, so
        # reading to EOF would wait for the worker to exit.
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        response = json.loads(await reader.readexactly(length))
        writer.close()
        statuses.append(response["status"])
    await server.stop()
    return statuses


with ServingService(
    out / "bundle", mode="process", tenants_dir=out / "tenants"
) as service:
    front = gateway.AsyncGateway(service)
    statuses = asyncio.run(drive(gateway.GatewayHTTPServer(front)))
    front.close()
layers = {span[0] for span in spans.SPANS}
for path in out.glob("spans-worker-*.json"):
    layers.update(span[0] for span in json.loads(path.read_text()))
print(json.dumps({"statuses": statuses, "layers": sorted(layers)}))
"""

LAYERS = {
    "gateway.http",
    "gateway.admission",
    "gateway.frame",
    "protocol.decode",
    "protocol.encode",
    "service.serve",
    "cache.probe",
    "cache.put",
    "router.scatter",
    "router.gather",
    "batcher.submit",
    "batcher.flush",
    "worker.submit",
    "worker.wait",
    "worker.compute",
    "tenancy.lease",
    "tenancy.write",
    "tenancy.read",
    "overlay.engine",
}


def test_spans_install_wraps_every_layer_on_the_request_path(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PERFBENCH), src]))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-3000:]
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["statuses"] == ["ok"] * 5
    assert LAYERS <= set(report["layers"]), LAYERS - set(report["layers"])
