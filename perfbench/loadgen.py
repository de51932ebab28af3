"""Seeded open-loop HTTP load generator for the gateway's front door.

Arrivals are Poisson at a fixed rate; each request is timed from the
moment it was *due*, so a stall in the server (or a full in-flight window)
shows up as latency on every request it delays.  At most ``MAX_IN_FLIGHT``
requests are outstanding: each lane is one thread issuing blocking
requests, and a request that comes due while every lane is busy waits in
the generator until one frees up.

Responses are framed by ``Content-Length`` and never read to EOF: in
process mode the gateway forks its worker pool from an executor thread,
and the child inherits the accepted client socket, so a reader waiting
for EOF hangs until the worker exits.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

CONNECT_TIMEOUT_S = 10.0
IO_TIMEOUT_S = 60.0
MAX_IN_FLIGHT = 2  # one lane per core of the 2-core host the rates were sized on
TICK_S = 0.25  # how often run_open_loop calls its on_tick
MIN_BEYOND = 10  # samples a reported tail percentile leaves above it


class TransportError(RuntimeError):
    """The HTTP exchange itself failed (refused, reset, truncated)."""


def http_request(
    port: int, method: str, path: str, body: bytes = b"", timeout: float = IO_TIMEOUT_S
) -> tuple[int, bytes]:
    """One HTTP/1.1 exchange on a fresh connection; ``(status, body)``."""
    status, payload, _local_port, _connected = exchange(port, method, path, body, timeout)
    return status, payload


def exchange(
    port: int, method: str, path: str, body: bytes = b"", timeout: float = IO_TIMEOUT_S
) -> tuple[int, bytes, int, float]:
    """``(status, body, local port, connected-at)`` of one exchange.

    The local port names the connection on the server side (the traced
    gateway keys its spans by peer port); ``connected-at`` is the
    ``perf_counter`` time the TCP handshake completed.
    """
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=CONNECT_TIMEOUT_S) as sock:
            connected = time.perf_counter()
            local_port = sock.getsockname()[1]
            sock.settimeout(timeout)
            sock.sendall(head + body)
            buffer = b""
            while b"\r\n\r\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    raise TransportError("connection closed before headers")
                buffer += chunk
            header_blob, _, rest = buffer.partition(b"\r\n\r\n")
            lines = header_blob.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            length = None
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            if length is None:
                raise TransportError("response without Content-Length")
            chunks = [rest]
            have = len(rest)
            while have < length:
                chunk = sock.recv(max(65536, length - have))
                if not chunk:
                    raise TransportError(f"body truncated at {have}/{length} bytes")
                chunks.append(chunk)
                have += len(chunk)
            return status, b"".join(chunks)[:length], local_port, connected
    except OSError as exc:
        raise TransportError(f"{type(exc).__name__}: {exc}") from None


def poisson_schedule(rate_qps: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from phase start) of ``count`` Poisson arrivals."""
    if rate_qps <= 0 or count <= 0:
        raise ValueError("rate and count must be positive")
    return np.cumsum(rng.exponential(1.0 / rate_qps, size=count))


@dataclass
class Sample:
    """One request's outcome, timed against its due time."""

    kind: str  # "read" or "write"
    family: str
    due: float  # absolute perf_counter time the request was due
    sent: float = 0.0
    done: float = 0.0
    slot_free: float = 0.0  # when a lane was free to take it
    connected: float = 0.0
    port: int = 0  # client-side TCP port of the connection
    status: str = "transport"  # envelope status, or "transport"
    store_version: int = -1
    timings: dict = field(default_factory=dict)
    response_bytes: int = 0
    payload: object = None  # kept only for parity-sampled requests
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        """The generator's own lateness: from when it could send to when it did."""
        return max(0.0, self.sent - max(self.due, self.slot_free)) * 1000.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class Item:
    """One scheduled request: its wire body and how to account for it."""

    kind: str
    family: str
    body: bytes
    keep_payload: bool = False


def send(port: int, item: Item, sample: Sample) -> None:
    """Send ``item`` now and fill ``sample`` with the outcome."""
    sample.sent = time.perf_counter()
    try:
        _status, raw, sample.port, sample.connected = exchange(
            port, "POST", "/v1/query", item.body
        )
    except TransportError as exc:
        sample.done = time.perf_counter()
        sample.error = str(exc)
        return
    sample.done = time.perf_counter()
    sample.response_bytes = len(raw)
    try:
        envelope = json.loads(raw)
    except ValueError:
        sample.status = "undecodable"
        return
    sample.status = str(envelope.get("status"))
    sample.store_version = int(envelope.get("store_version", -1))
    sample.timings = envelope.get("timings") or {}
    if sample.status != "ok":
        error = envelope.get("error") or {}
        sample.error = f"{error.get('code')}: {error.get('message')}"
    elif item.keep_payload:
        sample.payload = envelope.get("payload")


def run_open_loop(
    port: int,
    items: list[Item],
    offsets: np.ndarray,
    *,
    on_tick=None,
) -> list[Sample]:
    """Send ``items[i]`` due at ``start + offsets[i]``; one sample each.

    ``on_tick`` (if given) runs on the calling thread every ``TICK_S``
    while the lanes work — the caller samples memory or publishes
    generations there without adding a sending thread.
    """
    if len(items) != len(offsets):
        raise ValueError("one offset per item")
    start = time.perf_counter() + 0.05
    samples = [
        Sample(kind=item.kind, family=item.family, due=start + float(offset))
        for item, offset in zip(items, offsets)
    ]
    cursor = [0]
    lock = threading.Lock()

    def lane() -> None:
        while True:
            free_at = time.perf_counter()
            with lock:
                index = cursor[0]
                if index >= len(items):
                    return
                cursor[0] = index + 1
            sample = samples[index]
            sample.slot_free = free_at
            delay = sample.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            send(port, items[index], sample)

    lanes = [
        threading.Thread(target=lane, name=f"loadgen-{n}", daemon=True)
        for n in range(MAX_IN_FLIGHT)
    ]
    for thread in lanes:
        thread.start()
    while True:
        alive = [thread for thread in lanes if thread.is_alive()]
        if not alive:
            return samples
        alive[0].join(timeout=TICK_S)
        if on_tick is not None:
            on_tick()


# -- statistics ------------------------------------------------------------------


def tail_percentile(values) -> tuple[float, float]:
    """``(q, value)``: the highest of p50/p90/p95/p99/p99.9 with at least
    ``MIN_BEYOND`` samples above it, and that percentile's value."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    chosen = 0.5
    for q in (0.9, 0.95, 0.99, 0.999):
        if n - math.ceil(q * n) >= MIN_BEYOND:
            chosen = q
    return chosen, percentile(ordered, chosen)


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def error_frac(samples) -> float:
    """Failed / attempted: every non-``ok`` envelope and transport failure."""
    if not samples:
        raise ValueError("no samples")
    return sum(1 for sample in samples if not sample.ok) / len(samples)


def latencies_ms(samples) -> list[float]:
    """Due-time latencies; a failed request reads as infinitely slow, so it
    misses every latency limit."""
    return [sample.latency_ms if sample.ok else math.inf for sample in samples]
