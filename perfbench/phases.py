"""The steps one benchmark run is made of: set-up, load phases, checks."""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from loadgen import Item, Sample, latencies_ms, percentile, poisson_schedule, run_open_loop, send
from server import Gateway

PARITY_PER_FAMILY = 6
LADDER_PROBES = 4  # binary-search probes after any known rung
PROBE_READS = 1000  # reads offered per probe


class RunFailed(RuntimeError):
    """The run cannot produce a valid result."""


@dataclass(frozen=True)
class Ladder:
    """Fixed geometric ladder of offered read rates and its latency limit."""

    base_qps: float
    ratio: float
    rungs: int
    limit_ms: float
    nominal_rung: int | None = None  # the rung the nominal phase runs at

    def rate(self, index: int) -> float:
        return self.base_qps * self.ratio**index


def probe(port: int, item: Item) -> Sample:
    """One request, sent now, checked ``ok``."""
    sample = Sample(kind=item.kind, family=item.family, due=time.perf_counter())
    send(port, item, sample)
    if not sample.ok:
        raise RunFailed(f"{item.family} failed during set-up: {sample.status} {sample.error}")
    return sample


def setup(
    checkout: Path,
    work: Path,
    name: str,
    build,
    first_items: list[Item],
    *,
    gateway_args: list[str],
    entry: list[str] | None = None,
) -> tuple[Gateway, tuple[float, float]]:
    """Bundle build + boot to ``/healthz`` 200 + first answer of every family.

    ``build(bundle_dir)`` writes the bundle; returns the running gateway
    and the set-up's ``(wall seconds, CPU seconds)``.  The CPU seconds are
    this process's during the build plus the gateway's and its worker's
    up to the last first answer; unlike the wall seconds they leave out
    vCPU steal and this process's polling while the gateway boots.
    """
    directory = work / name
    directory.mkdir(parents=True)
    started = time.perf_counter()
    cpu_started = time.process_time()
    build(directory / "bundle")
    build_cpu = time.process_time() - cpu_started
    gateway = Gateway(
        checkout,
        directory / "bundle",
        directory / "gateway.log",
        extra_args=gateway_args,
        entry=entry,
    )
    try:
        port = gateway.wait_ready()
        for item in first_items:
            probe(port, item)
    except BaseException:
        gateway.stop()
        raise
    wall = time.perf_counter() - started
    return gateway, (wall, build_cpu + gateway.cpu_s())


def stop(gateway: Gateway) -> None:
    """Stop the gateway; a process of its group surviving SIGINT fails the run."""
    survivors = gateway.stop()
    if survivors:
        raise RunFailed(f"processes survived the gateway's SIGINT: {survivors}")


def discard(gateway: Gateway) -> None:
    """Stop a set-up-only gateway and delete its directory."""
    stop(gateway)
    shutil.rmtree(gateway.bundle.parent, ignore_errors=True)


def warm(port: int, items: list[Item]) -> list[Sample]:
    """Serve ``items`` once each, back to back (fills the query cache)."""
    offsets = np.arange(1, len(items) + 1) * 1e-4
    return run_open_loop(port, items, offsets)


def open_loop(gateway: Gateway, items: list[Item], rate: float, rng, on_tick=None) -> list[Sample]:
    offsets = poisson_schedule(rate, len(items), rng)

    def tick() -> None:
        gateway.sample_rss()
        if on_tick is not None:
            on_tick()

    return run_open_loop(gateway.port, items, offsets, on_tick=tick)


def passes(samples: list[Sample], limit_ms: float) -> bool:
    """A rung holds when p99 latency (failures count as misses) is within
    the limit and the backlog is not growing: in the last fifth of the
    rung, the median wait for a free lane stays under a tenth of the
    limit.  Past capacity that wait grows with every request, so a rung
    above the knee fails even when its early requests were fast."""
    latencies = latencies_ms(samples)
    tail = samples[-max(1, len(samples) // 5):]
    waits = sorted(max(0.0, s.sent - s.due) * 1000.0 for s in tail)
    return (
        percentile(sorted(latencies), 0.99) <= limit_ms
        and percentile(waits, 0.5) <= limit_ms / 10.0
    )


def search_ladder(
    gateway: Gateway, ladder: Ladder, make_items, rng, nominal_held: bool | None = None
) -> tuple[float, list, list]:
    """Binary search of the ladder; ``(max rate held, probes, samples)``.

    ``make_items(count)`` returns that many read items.  When the nominal
    phase ran at ``ladder.nominal_rung``, ``nominal_held`` is its outcome
    and the search continues above or below it.  The result is the
    highest rung that held (the rung below the ladder if none did).
    """
    held, failed = -1, ladder.rungs
    trail, samples = [], []
    if nominal_held is not None:
        if nominal_held:
            held = ladder.nominal_rung
        else:
            failed = ladder.nominal_rung
        trail.append((round(ladder.rate(ladder.nominal_rung), 1), nominal_held))
    for _ in range(LADDER_PROBES):
        if failed - held <= 1:
            break
        index = (held + failed + 1) // 2
        rate = ladder.rate(index)
        probe_samples = open_loop(gateway, make_items(PROBE_READS), rate, rng)
        ok = passes(probe_samples, ladder.limit_ms)
        trail.append((round(rate, 1), ok))
        samples.extend(probe_samples)
        if ok:
            held = index
        else:
            failed = index
    return ladder.rate(held), trail, samples


def parity(bundle: Path, items: list[Item], samples: list[Sample]):
    """Compare kept gateway payloads byte for byte with an in-process
    ``ServingService(mode="inline")`` over the same bundle.

    Returns ``(compared per family, mismatches)``.  Only shared-graph
    answers carrying the bundle's final ``store_version`` are comparable
    (tenant reads raced tenant writes, so they have no offline answer).
    """
    from repro.serving.protocol import decode_request_envelope, payload_to_wire
    from repro.serving.service import ServingService

    compared: dict[str, int] = {}
    mismatches: list[str] = []
    with ServingService(bundle, mode="inline") as service:
        for item, sample in zip(items, samples):
            if not (item.keep_payload and sample.ok and sample.store_version == service.store_version):
                continue
            request, _trace, _tenant = decode_request_envelope(item.body)
            response = service.serve(request)
            expected = json.dumps(
                payload_to_wire(response.request_type, response.payload), sort_keys=True
            )
            got = json.dumps(sample.payload, sort_keys=True)
            if not response.ok or got != expected:
                at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), 0)
                mismatches.append(
                    f"{item.family}: gateway answer differs from inline at byte {at}: "
                    f"...{got[max(0, at - 60):at + 60]}... vs ...{expected[max(0, at - 60):at + 60]}..."
                )
            compared[item.family] = compared.get(item.family, 0) + 1
    return compared, mismatches


def mark_parity(items: list[Item], rng, families) -> None:
    """Keep the payloads of a seeded handful of requests per family, drawn
    from the last third of the phase (after any generation swap)."""
    by_family: dict[str, list[int]] = {}
    for index in range(2 * len(items) // 3, len(items)):
        if items[index].family in families:
            by_family.setdefault(items[index].family, []).append(index)
    for indices in by_family.values():
        chosen = rng.choice(len(indices), size=min(PARITY_PER_FAMILY, len(indices)), replace=False)
        for position in chosen:
            items[indices[int(position)]].keep_payload = True
