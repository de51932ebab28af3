"""Per-layer self time of traced requests, on the client's timeline.

Each client request contributes a window ``[sent, done]`` (connect start
to last response byte).  Inside it sit the client's own spans, the
gateway's spans for that connection, and the worker-process spans of
the work it submitted.  Every instant of the window is charged to the
innermost span covering it (deepest layer; the later start on a tie), so
a layer's *self time* is its span time minus the part its children
cover, and parallel work (a worker computing one shard while the
gateway submits the next) is charged once.  Instants no span covers are
*unattributed*.  They and the self time of the connection's root span
(and of the accept gap before it), where any uninstrumented work of the
gateway lands, are *unexplained*; their share of the window is the
trace's health check.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# Nesting depth per layer: a deeper layer always runs inside a shallower
# one of the same request.
DEPTH = {
    "loadgen.connect": 1,
    "gateway.accept": 1,
    "gateway.http": 1,
    "loadgen.receive": 2,
    "gateway.frame": 2,
    "protocol.decode": 2,
    "protocol.encode": 2,
    "gateway.admission": 2,
    "service.serve": 3,
    "cache.probe": 4,
    "cache.put": 4,
    "router.scatter": 4,
    "router.gather": 4,
    "batcher.submit": 4,
    "batcher.flush": 4,
    "tenancy.write": 4,
    "tenancy.lease": 5,
    "tenancy.read": 5,
    "overlay.engine": 5,
    "worker.submit": 5,
    "worker.wait": 5,
    "worker.compute": 6,
}


# The connection's root span and the gap before it: their self time is
# work no instrumented layer below the connection explains.
ROOT_LAYERS = ("gateway.http", "gateway.accept")


def unexplained_ms(result: dict) -> float:
    """Mean ms per request that no layer explains: instants no span covers
    plus the root layers' own self time."""
    return result["unattributed_ms"] + sum(result["layers"].get(layer, 0.0) for layer in ROOT_LAYERS)


def self_times(
    window: tuple[float, float], spans: list[tuple[str, float, float]]
) -> tuple[dict[str, float], float]:
    """``({layer: seconds}, unattributed seconds)`` over ``window``."""
    lo, hi = window
    clipped = [
        (layer, max(start, lo), min(end, hi))
        for layer, start, end in spans
        if min(end, hi) > max(start, lo)
    ]
    bounds = sorted({lo, hi, *(s for _, s, _ in clipped), *(e for _, _, e in clipped)})
    owned: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    for left, right in zip(bounds, bounds[1:]):
        best = None
        for layer, start, end in clipped:
            if start <= left and end >= right:
                rank = (DEPTH[layer], start)
                if best is None or rank > best[0]:
                    best = (rank, layer)
        if best is None:
            unattributed += right - left
        else:
            owned[best[1]] += right - left
    return dict(owned), unattributed


def load_spans(directory: Path) -> tuple[list, list]:
    """``(gateway spans, worker spans)`` from every dumped file."""
    gateway, workers = [], []
    for path in sorted(directory.glob("spans-*.json")):
        target = gateway if path.name.startswith("spans-gateway-") else workers
        target.extend(tuple(span) for span in json.loads(path.read_text(encoding="utf-8")))
    return gateway, workers


def link_worker_spans(gateway: list, workers: list) -> list:
    """Give each worker-process span the request of the submit that sent it.

    A worker span carries ``repr(request)``; it belongs to the earliest
    not-yet-matched submit of an equal request that started before it.
    """
    submits: dict[str, list] = defaultdict(list)
    for span in sorted(gateway, key=lambda s: s[1]):
        if span[0] == "worker.submit":
            submits[span[4]].append(span)
    linked = []
    for layer, start, end, _rid, key in sorted(workers, key=lambda s: s[1]):
        queue = submits.get(key)
        if queue and queue[0][1] <= start:
            linked.append((layer, start, end, queue.pop(0)[3], key))
    return linked


def attribute(samples, gateway: list, workers: list) -> dict:
    """Mean per-request self time (ms) of every layer over ``samples``.

    Returns ``{"layers": {layer: ms}, "unattributed_ms", "window_ms",
    "requests", "unmatched"}``; a sample whose connection has no gateway
    span is counted in ``unmatched`` and its whole window as unattributed.
    """
    by_request: dict[int, list] = defaultdict(list)
    for span in gateway + link_worker_spans(gateway, workers):
        if span[3] is not None:
            by_request[span[3]].append(span)
    totals: dict[str, float] = defaultdict(float)
    unattributed = window_total = 0.0
    matched = unmatched = 0
    for sample in samples:
        candidates = by_request.get(sample.port, ())
        roots = [
            s for s in candidates
            if s[0] == "gateway.http" and sample.sent <= s[1] <= sample.done
        ]
        if not roots:
            # A request the gateway's spans cannot be tied to counts as
            # wholly unattributed.
            unmatched += 1
            unattributed += sample.done - sample.sent
            window_total += sample.done - sample.sent
            continue
        root = roots[0]
        own = [
            (layer, start, end)
            for layer, start, end, _rid, _key in candidates
            if root[1] <= start and end <= root[2] + 1e-3
        ]
        frames = [end for layer, _s, end in own if layer == "gateway.frame"]
        own.append(("loadgen.connect", sample.sent, sample.connected))
        own.append(("gateway.accept", sample.connected, root[1]))
        if frames:
            own.append(("loadgen.receive", max(frames), sample.done))
        layers, lost = self_times((sample.sent, sample.done), own)
        for layer, seconds in layers.items():
            totals[layer] += seconds
        unattributed += lost
        window_total += sample.done - sample.sent
        matched += 1
    if not matched:
        raise ValueError("no traced request matched a gateway span")
    count = matched + unmatched
    return {
        "layers": {layer: 1000.0 * total / count for layer, total in totals.items()},
        "unattributed_ms": 1000.0 * unattributed / count,
        "window_ms": 1000.0 * window_total / count,
        "requests": matched,
        "unmatched": unmatched,
    }
