"""One benchmark run: set up, drive the gateway, check answers, report.

Imported by ``run.py`` only once it has checked that the working directory
is a checkout holding ``src/repro`` (this module imports the program).
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import attribution
import phases
import workloads
from repro.kg.deltas import GenerationPublisher
from repro.kg.persistence import save_snapshot
from loadgen import error_frac, http_request, latencies_ms, percentile, tail_percentile
from phases import Ladder, RunFailed
from workloads import FAMILIES, encode

# Generator lateness (from the moment a lane was free to send a due
# request until it did) above this p99 makes the run invalid: the
# schedule, not the server, would be setting the latencies.
LATE_LIMIT_MS = 50.0
TENANTS = 48  # more than the gateway's 32 resident slots: evictions happen
WATCH_INTERVAL_S = 0.2
GROWTH_FACTS = 20
SETUPS = 3  # set-ups per untraced run; setup_s is the median of their CPU seconds
# A traced run drives two gateways (untraced, then traced), each for this
# share of the nominal (and quiet) phase; the untraced one also climbs the
# ladder.
TRACED_SHARE = 0.5


@dataclass(frozen=True)
class Plan:
    scale: float
    read_qps: float  # nominal offered rate of shared reads
    nominal_share: float  # share of --seconds spent at the nominal rates
    ladder: Ladder
    tenant_read_qps: float = 0.0  # grow_tenants only: tenant-scoped reads
    write_qps: float = 0.0  # grow_tenants only: tenant upserts and syncs
    # grow_tenants only: share of --seconds spent on shared reads alone
    # (at read_qps) after the nominal phase; loadgen.read_p50_ms is taken there.
    quiet_share: float = 0.0

    @property
    def tenants(self) -> bool:
        return self.write_qps > 0


PLANS = {
    "hot_reads": Plan(
        scale=1.0,
        read_qps=200.0,
        nominal_share=0.6,
        # The nominal rate is a rung, so the nominal phase is the first probe.
        ladder=Ladder(base_qps=200.0 / 1.17**15, ratio=1.17, rungs=31, limit_ms=100.0,
                      nominal_rung=15),
    ),
    "cold_compute": Plan(
        scale=3.0,
        # At 120/s a run during a vCPU-steal episode tipped into a growing
        # backlog (p50 4 -> 25 ms); 60/s leaves headroom below the knee.
        read_qps=60.0,
        nominal_share=1.0,
        ladder=Ladder(base_qps=60.0 / 1.2**2, ratio=1.2, rungs=18, limit_ms=150.0,
                      nominal_rung=2),
    ),
    "grow_tenants": Plan(
        scale=1.0,
        read_qps=160.0,
        tenant_read_qps=10.0,
        write_qps=5.0,
        nominal_share=0.64,
        quiet_share=0.24,
        # Probed with shared reads only, after the generation swap settled.
        ladder=Ladder(base_qps=250.0, ratio=1.18, rungs=15, limit_ms=100.0),
    ),
}
GROW_SYNC_SHARE = 0.3  # of tenant writes
PUBLISH_AT = 0.3  # one shared generation, this far into the nominal phase
# A tenant is written again only after this many writes to other tenants.
# Closer writes race the tenant chain's background compaction, which then
# persists a base whose store version disagrees with chain.json; the
# tenant fails every later cold attach with StoreError.  That is a defect
# in the program (serving/tenancy.py mutates the store while
# kg/deltas.py compacts it), left for a later change; see README.md.
# The race arm (race_arm) writes without spacing and counts what fails,
# so the defect stays visible in tenancy.race_failed.
WRITE_SPACING = 24
RACE_TENANTS = 4
RACE_WRITES = 12  # per race tenant, back to back: past the chain's 8-delta compaction


@dataclass
class Context:
    """What every step of one run shares."""

    plan: Plan
    vocab: workloads.Vocabulary
    seed: int
    seconds: float
    work: Path  # working directory inside the checkout, removed at exit
    checkout: Path
    streams: "Streams"


# -- request streams ---------------------------------------------------------------


class Streams:
    """Every request a run sends, derived from ``--seed`` alone."""

    def __init__(self, workload: str, plan: Plan, vocab, seed: int) -> None:
        self.workload = workload
        self.plan = plan
        self.vocab = vocab
        self.seed = seed
        self.hot_keys = (
            [] if workload == "cold_compute"
            else workloads.hot_key_set(vocab, seed, per_family=25 if plan.tenants else 50)
        )

    def rng(self, *tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 7, *tag])

    def first_items(self) -> list:
        items = [encode(request, family) for family, request in workloads.first_of_each(self.vocab)]
        if self.plan.tenants:
            maker = workloads.RequestMaker(self.vocab, self.rng(0), skewed=False)
            family, write = workloads.tenant_write(maker, TENANTS, 0, 1, sync=False)
            tenant = workloads.tenant_id(TENANTS)
            items.append(encode(write, family, kind="write", tenant=tenant))
            items.append(encode(maker.make("walk", 1), "tenant_walk", tenant=tenant))
        return items

    def warm_items(self) -> list:
        items = [encode(request, family) for family, request in self.hot_keys]
        if self.plan.tenants:
            maker = workloads.RequestMaker(self.vocab, self.rng(1), skewed=False)
            for n in range(TENANTS):
                family, write = workloads.tenant_write(maker, n, 0, 1, sync=False)
                items.append(encode(write, family, kind="write", tenant=workloads.tenant_id(n)))
        return items

    def reads(self, count: int, rng: np.random.Generator, phase: int) -> list:
        """Shared reads of the workload's mix (``phase`` keeps cold_compute's
        requests unique across the phases of one gateway)."""
        if self.workload == "cold_compute":
            return workloads.cold_stream(self.vocab, self.seed, count, phase)
        return workloads.hot_stream(self.hot_keys, count, rng)

    def nominal(self, duration_s: float, rng: np.random.Generator) -> tuple[list, float]:
        """``(items, offered rate)`` of the nominal phase: shared reads plus,
        on grow_tenants, tenant reads and tenant writes at their rates."""
        plan = self.plan
        rate = plan.read_qps + plan.tenant_read_qps + plan.write_qps
        count = int(rate * duration_s)
        items = self.reads(count, rng, phase=0)
        if not plan.tenants:
            return items, rate
        maker = workloads.RequestMaker(self.vocab, rng, skewed=True)
        kinds = rng.choice(3, size=count, p=np.array(
            [plan.read_qps, plan.tenant_read_qps, plan.write_qps]) / rate)
        recent: list[int] = []  # the last WRITE_SPACING tenants written
        for index in np.flatnonzero(kinds == 1):
            family = "walk" if rng.random() < 0.5 else "neighborhood"
            request = maker.make(family, int(rng.integers(1, 3)))
            tenant = workloads.tenant_id(int(rng.integers(TENANTS)))
            items[int(index)] = encode(request, f"tenant_{family}", tenant=tenant)
        for sequence, index in enumerate(np.flatnonzero(kinds == 2)):
            tenant = int(rng.choice([t for t in range(TENANTS) if t not in recent]))
            recent = (recent + [tenant])[-WRITE_SPACING:]
            family, write = workloads.tenant_write(
                maker, tenant, 1 + sequence % 64, 2 + sequence,
                sync=bool(rng.random() < GROW_SYNC_SHARE),
            )
            items[int(index)] = encode(write, family, kind="write", tenant=workloads.tenant_id(tenant))
        return items, rate


# -- growth ------------------------------------------------------------------------


class Grower:
    """Publishes ~20-fact shared generations into the served bundle."""

    def __init__(self, store, publisher, vocab, seed: int) -> None:
        from repro.common import ids

        self.store = store
        self.publisher = publisher
        self.related = ids.predicate_id("related_to")
        self.rng = np.random.default_rng([seed, 11])
        self.vocab = vocab
        self.published: list[tuple[float, int, float]] = []  # (start, version, ms)

    def publish(self) -> None:
        from repro.kg.triple import entity_fact

        keys = []
        pool = self.vocab.embedded
        while len(keys) < GROWTH_FACTS:
            left, right = (pool[int(i)] for i in self.rng.choice(len(pool), 2, replace=False))
            if right in self.store.objects(left, self.related):
                continue
            fact = entity_fact(
                left, self.related, right, confidence=0.9,
                sources=("perfbench",), updated_at=float(len(self.published)),
            )
            self.store.add(fact)
            keys.append(fact.key)
        self.publisher.record(keys=keys)
        started = time.perf_counter()
        info = self.publisher.publish()
        self.published.append((started, info.store_version, (time.perf_counter() - started) * 1000))


# -- one gateway's measured phases -----------------------------------------------


def boot(ctx: Context, name: str, *, traced: bool):
    """One set-up; returns ``(gateway, (wall s, CPU s), grower-or-None)``."""
    plan = ctx.plan
    world = workloads.build_world(plan.scale)
    holder = {}

    def build(bundle: Path) -> None:
        save_snapshot(world.store, bundle)
        if plan.tenants:
            # The publisher makes the bundle a delta chain as it attaches.
            holder["grower"] = Grower(
                world.store, GenerationPublisher(world.store, bundle), ctx.vocab, ctx.seed
            )

    args = []
    if plan.tenants:
        tenants = ctx.work / name / "tenants"
        args = ["--tenants-dir", str(tenants), "--watch-interval-s", str(WATCH_INTERVAL_S)]
    entry = None
    if traced:
        spans_dir = ctx.work / f"{name}-spans"
        spans_dir.mkdir()
        entry = [str(Path(__file__).with_name("traced_gateway.py")), str(spans_dir)]
    gateway, seconds = phases.setup(
        ctx.checkout, ctx.work, name, build, ctx.streams.first_items(),
        gateway_args=args, entry=entry,
    )
    return gateway, seconds, holder.get("grower")


def drive(
    ctx: Context, gateway, grower, *, ladder: bool, race: bool = False, share: float = 1.0
) -> dict:
    """Warm-up, the nominal phase and (optionally) the ladder and, on
    grow_tenants, the race arm on one gateway."""
    plan, streams = ctx.plan, ctx.streams
    out = {"metrics_before": gateway.metrics()}
    warm_items = streams.warm_items()
    out["warm"] = phases.warm(gateway.port, warm_items) if warm_items else []
    rng = streams.rng(2)
    duration = ctx.seconds * plan.nominal_share * share
    items, rate = streams.nominal(duration, rng)
    phases.mark_parity(items, streams.rng(3), FAMILIES)
    on_tick = None
    if grower is not None:
        publish_at = time.perf_counter() + PUBLISH_AT * duration

        def on_tick() -> None:
            if not grower.published and time.perf_counter() >= publish_at:
                grower.publish()

    out["items"] = items
    cpu = gateway.cpu_s()
    out["nominal"] = phases.open_loop(gateway, items, rate, rng, on_tick)
    out["nominal_cpu_s"] = gateway.cpu_s() - cpu
    if grower is not None:
        if not grower.published:  # a phase too short to reach the publish time
            grower.publish()
        if not wait_for_version(gateway.port, grower.published[-1][1]):
            raise RunFailed("the gateway never adopted the published generation")
    out["quiet"] = []
    if plan.quiet_share:
        count = int(plan.read_qps * ctx.seconds * plan.quiet_share * share)
        out["quiet"] = phases.open_loop(gateway, streams.reads(count, rng, 0), plan.read_qps, rng)
    if ladder:
        known = None
        if plan.ladder.nominal_rung is not None:
            known = phases.passes(reads_of(out["nominal"]), plan.ladder.limit_ms)
        probes = iter(range(1, plan.ladder.rungs + 1))
        out["max_qps"], out["trail"], out["ladder"] = phases.search_ladder(
            gateway, plan.ladder, lambda n: streams.reads(n, rng, next(probes)), rng, known
        )
    out["metrics_after"] = gateway.metrics()
    out["chain_length"] = grower.publisher.chain_length if grower is not None else 0
    out["race"] = race_arm(ctx, gateway) if race and plan.tenants else []
    return out


def race_arm(ctx: Context, gateway) -> list:
    """Unspaced writes: ``RACE_WRITES`` back-to-back upserts to each of
    ``RACE_TENANTS`` fresh tenants, one read of every nominal tenant (which
    evicts them from the 32 resident slots), then one read of each race
    tenant (a cold attach).  Returns the arm's samples; their failures are
    the compaction race's and are reported on their own."""
    maker = workloads.RequestMaker(ctx.vocab, ctx.streams.rng(4), skewed=False)
    race = range(TENANTS + 1, TENANTS + 1 + RACE_TENANTS)  # set-up probes tenant TENANTS
    items = []
    for tenant in race:
        for index in range(RACE_WRITES):
            family, write = workloads.tenant_write(maker, tenant, index, 1 + index, sync=False)
            items.append(encode(write, family, kind="write", tenant=workloads.tenant_id(tenant)))
    for tenant in [*range(TENANTS), *race]:
        items.append(encode(maker.make("walk", 1), "tenant_walk", tenant=workloads.tenant_id(tenant)))
    return phases.warm(gateway.port, items)


def wait_for_version(port: int, version: int, timeout_s: float = 60.0) -> bool:
    """Poll ``/healthz`` until the gateway serves ``version``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, body = http_request(port, "GET", "/healthz", timeout=10.0)
        if status == 200 and json.loads(body).get("store_version") == version:
            return True
        time.sleep(0.05)
    return False


# -- metrics -------------------------------------------------------------------------


def reads_of(samples) -> list:
    return [sample for sample in samples if sample.kind == "read"]


def ms_p(samples, q: float) -> float:
    return percentile(sorted(latencies_ms(samples)), q)


def end_to_end(run: dict, setups: list[tuple[float, float]], peak_rss_kb: int) -> dict:
    """The gated metrics.  Both times are CPU time, not wall time: on the
    shared 2-vCPU host the benchmark was sized on, vCPU steal moved
    wall-clock read latency by x2-4 between runs of the same inputs, far
    past any usable bound; the kernel keeps steal out of CPU time, which
    moved by a tenth as much.  Wall latency is reported per layer
    (``loadgen.read_p50_ms``, ``loadgen.read_tail_ms``).  See README.md."""
    return {
        "setup_s": (statistics.median(cpu for _wall, cpu in setups), "s"),
        "request_cpu_ms": (request_cpu_ms(run), "ms"),
        "server_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def request_cpu_ms(run: dict) -> float:
    """Gateway + worker CPU time per request of the nominal phase (on
    grow_tenants that phase also holds the tenant traffic and the swap)."""
    return 1000.0 * run["nominal_cpu_s"] / len(run["nominal"])


def delta(run: dict, name: str) -> float:
    before, after = run["metrics_before"], run["metrics_after"]
    return after.get(name, 0.0) - before.get(name, 0.0)


def delta_family(run: dict, prefix: str) -> float:
    before, after = run["metrics_before"], run["metrics_after"]
    return sum(v for k, v in after.items() if k.startswith(prefix)) - sum(
        v for k, v in before.items() if k.startswith(prefix)
    )


def mean_or_zero(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def growth_metrics(run: dict, grower) -> dict:
    """Publish wall time, freshness and the slowest first-per-family read
    after the swap; zeros where nothing was published."""
    if grower is None or not grower.published:
        return {"publish_ms": 0.0, "freshness_ms": 0.0, "first_after_swap_ms": 0.0}
    started, version, publish_ms = grower.published[0]
    fresh = sorted((s for s in run["nominal"] if s.ok and s.store_version >= version),
                   key=lambda s: s.sent)
    firsts: dict[str, float] = {}
    for sample in fresh:
        if sample.kind == "read":
            firsts.setdefault(sample.family, sample.latency_ms)
    return {
        "publish_ms": publish_ms,
        "freshness_ms": (min(s.done for s in fresh) - started) * 1000.0 if fresh else 0.0,
        "first_after_swap_ms": max(firsts.values(), default=0.0),
    }


def p50_reads(run: dict) -> list:
    """The reads ``loadgen.read_p50_ms`` is taken over: the quiet phase's where
    there is one, else the nominal phase's.  Beside tenant traffic,
    grow_tenants' shared-read p50 swung by ×2-3 between runs of the same
    inputs (the tenant operations' server time did, 4-25 ms), and the
    swap's stall is growth.*'s to report."""
    return reads_of(run["quiet"] or run["nominal"])


def samples_of(run: dict) -> list:
    """Every sample of a gateway's measured phases but the ladder's."""
    return run["warm"] + run["nominal"] + run["quiet"]


def per_layer(run: dict, traced: dict, grower, traced_p50: float) -> dict:
    """Per-layer metrics: counts and envelope timings from the untraced
    gateway, self times (†) from the traced one."""
    all_samples = samples_of(run)
    reads = reads_of(all_samples)
    ok_reads = [s for s in reads if s.ok]
    writes = [s for s in run["nominal"] if s.kind == "write"]
    hits = delta_family(run, 'kg_cache_hits_by_type_total{')
    misses = delta_family(run, 'kg_cache_misses_by_type_total{')
    split = [s for s in ok_reads if "scatter_ms" in s.timings]
    pool_count = delta(run, "kg_pool_latency_seconds_count")
    flushes = delta(run, "kg_batcher_flushes_total")
    layers = traced["layers"]
    growth = growth_metrics(run, grower)
    untraced_p50 = ms_p(p50_reads(run), 0.5)
    # The highest percentile of the nominal reads with 10 beyond it: p99
    # on hot_reads and grow_tenants, p95 on cold_compute's 600 reads.
    tail = tail_percentile(latencies_ms(reads_of(run["nominal"])))
    out = {
        "loadgen.read_p50_ms": (untraced_p50, "ms"),
        "loadgen.late_p99_ms": (percentile(sorted(s.late_ms for s in all_samples), 0.99), "ms"),
        "loadgen.error_frac": (error_frac(all_samples), "ratio"),
        "loadgen.max_read_qps": (run["max_qps"], "1/s"),
        "loadgen.read_tail_q": (tail[0], "ratio"),
        "loadgen.read_tail_ms": (tail[1], "ms"),
        "loadgen.connect_ms": (layers.get("loadgen.connect", 0.0), "ms"),
        "loadgen.receive_ms": (layers.get("loadgen.receive", 0.0), "ms"),
        "gateway.overhead_ms": (
            median_or_zero(
                (s.done - s.sent) * 1000.0 - s.timings.get("total_ms", 0.0) for s in ok_reads
            ),
            "ms",
        ),
        "gateway.accept_ms": (layers.get("gateway.accept", 0.0), "ms"),
        "gateway.http_ms": (
            layers.get("gateway.http", 0.0) + layers.get("gateway.frame", 0.0), "ms"
        ),
        "gateway.admission_wait_ms": (layers.get("gateway.admission", 0.0), "ms"),
        "gateway.rejected": (delta(run, "kg_gateway_rejected_total"), "count"),
        "gateway.shed": (delta(run, "kg_gateway_shed_total"), "count"),
        "protocol.decode_ms": (layers.get("protocol.decode", 0.0), "ms"),
        "protocol.encode_ms": (layers.get("protocol.encode", 0.0), "ms"),
        "protocol.response_bytes": (mean_or_zero(s.response_bytes for s in ok_reads), "bytes"),
        "service.total_ms": (median_or_zero(s.timings.get("total_ms", 0.0) for s in ok_reads), "ms"),
        "service.self_ms": (layers.get("service.serve", 0.0), "ms"),
        "cache.hit_frac": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "cache.probe_ms": (mean_or_zero(s.timings["cache_ms"] for s in ok_reads if "cache_ms" in s.timings), "ms"),
        "cache.invalidated": (delta(run, "kg_cache_invalidated_total"), "count"),
        "router.scatter_ms": (mean_or_zero(s.timings["scatter_ms"] for s in split), "ms"),
        "router.gather_ms": (mean_or_zero(s.timings.get("gather_ms", 0.0) for s in split), "ms"),
        "router.fanout": (delta(run, "kg_serve_shard_fanout_total") / len(split) if split else 0.0, "ratio"),
        "worker.pool_ms": (
            1000.0 * delta(run, "kg_pool_latency_seconds_sum") / pool_count if pool_count else 0.0,
            "ms",
        ),
        "worker.compute_ms": (layers.get("worker.compute", 0.0), "ms"),
        "worker.ipc_ms": (layers.get("worker.submit", 0.0) + layers.get("worker.wait", 0.0), "ms"),
        "worker.retries": (delta(run, "kg_pool_retries_total"), "count"),
        "worker.respawns": (delta(run, "kg_pool_respawns_total"), "count"),
        "batcher.texts_per_flush": (
            delta(run, "kg_batcher_submitted_total") / flushes if flushes else 0.0, "ratio"
        ),
        "tenancy.lease_ms": (layers.get("tenancy.lease", 0.0), "ms"),
        "tenancy.write_ms": (median_or_zero(s.timings.get("total_ms", 0.0) for s in writes if s.ok), "ms"),
        "tenancy.write_p50_ms": (ms_p(writes, 0.5) if writes else 0.0, "ms"),
        "tenancy.write_p90_ms": (ms_p(writes, 0.9) if writes else 0.0, "ms"),
        "tenancy.attached": (delta(run, 'kg_tenant_ops_by_kind_total{kind="attached"}'), "count"),
        "tenancy.evicted": (delta(run, 'kg_tenant_ops_by_kind_total{kind="evicted"}'), "count"),
        "tenancy.race_failed": (float(sum(not s.ok for s in run["race"])), "count"),
        "deltas.chain_length": (float(run["chain_length"]), "count"),
        "growth.publish_ms": (growth["publish_ms"], "ms"),
        "growth.freshness_ms": (growth["freshness_ms"], "ms"),
        "growth.first_after_swap_ms": (growth["first_after_swap_ms"], "ms"),
        "trace.overhead": (traced_p50 / untraced_p50, "ratio"),
        "trace.unattributed_frac": (attribution.unexplained_ms(traced) / traced["window_ms"], "ratio"),
    }
    for family in FAMILIES:
        computed = [
            s.timings["compute_ms"] for s in ok_reads if s.family == family and "compute_ms" in s.timings
        ]
        out[f"compute_ms.{family}"] = (median_or_zero(computed), "ms")
    return out


# -- the run -------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, checkout: Path) -> dict:
    from repro.common.logging import set_level

    set_level("warning")  # the in-process publisher logs every generation
    plan = PLANS[workload]
    vocab = workloads.Vocabulary.of(workloads.build_world(plan.scale).store)
    work = checkout / ".perfbench-work" / f"{workload}-{seed}-{int(time.time() * 1000)}"
    work.mkdir(parents=True)
    ctx = Context(plan, vocab, seed, seconds, work, checkout, Streams(workload, plan, vocab, seed))
    try:
        return (run_traced if trace else run_untraced)(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


def check_outputs(ctx: Context, run_: dict, gateway, grower) -> tuple[bool, list[str]]:
    """Inline parity of the kept answers plus the run's structural checks."""
    compared, problems = phases.parity(gateway.bundle, run_["items"], run_["nominal"])
    missing = [family for family in FAMILIES if not compared.get(family)]
    if missing:
        problems.append(f"no answer compared for {missing}")
    late = percentile(sorted(s.late_ms for s in samples_of(run_)), 0.99)
    if late > LATE_LIMIT_MS:
        raise RunFailed(f"load generator ran late (p99 {late:.1f} ms)")
    if grower is not None:
        if delta(run_, "kg_growth_swaps_total") < 1:
            problems.append("no generation swap happened")
        if delta(run_, 'kg_tenant_ops_by_kind_total{kind="evicted"}') < 1:
            problems.append("no tenant eviction happened")
    return not problems, problems


def counts(samples) -> tuple[int, int]:
    """``(attempted, failed)``; the distinct failures go to stderr."""
    failures: dict[str, int] = {}
    for sample in samples:
        if not sample.ok:
            key = f"{sample.family}: {sample.status} {sample.error[:160]}"
            failures[key] = failures.get(key, 0) + 1
    for key, number in sorted(failures.items(), key=lambda kv: -kv[1])[:10]:
        print(f"perfbench: {number} x {key}", file=sys.stderr)
    return len(samples), sum(failures.values())


def run_untraced(ctx: Context) -> dict:
    setups = []
    for index in range(SETUPS):
        gateway, seconds, grower = boot(ctx, f"setup{index}", traced=False)
        setups.append(seconds)
        if index < SETUPS - 1:
            phases.discard(gateway)
    try:
        measured = drive(ctx, gateway, grower, ladder=False)
        gateway.sample_rss()
    finally:
        phases.stop(gateway)
    correct, problems = check_outputs(ctx, measured, gateway, grower)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: set-ups {', '.join(f'{w:.2f} s ({c:.2f} s CPU)' for w, c in setups)}; "
          f"read p50 {ms_p(p50_reads(measured), 0.5):.3f} ms (wall, not gated)", file=sys.stderr)
    print("perfbench: nominal phase by family", file=sys.stderr)
    print_families(measured["nominal"])
    attempted, failed = counts(samples_of(measured))
    return report(correct, attempted, failed, end_to_end(measured, setups, gateway.peak_rss_kb))


def run_traced(ctx: Context) -> dict:
    gateway, _seconds, grower = boot(ctx, "untraced", traced=False)
    try:
        measured = drive(ctx, gateway, grower, ladder=True, race=True, share=TRACED_SHARE)
    finally:
        phases.stop(gateway)
    correct, problems = check_outputs(ctx, measured, gateway, grower)
    traced_gateway, _seconds, traced_grower = boot(ctx, "traced", traced=True)
    try:
        traced_run = drive(ctx, traced_gateway, traced_grower, ladder=False, share=TRACED_SHARE)
    finally:
        phases.stop(traced_gateway)
    gateway_spans, worker_spans = attribution.load_spans(ctx.work / "traced-spans")
    traced_reads = [s for s in reads_of(traced_run["nominal"]) if s.ok]
    traced = attribution.attribute(traced_reads, gateway_spans, worker_spans)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print_layers(traced)
    print(f"perfbench: ladder {measured['trail']}", file=sys.stderr)
    if measured["race"]:
        print("perfbench: race arm (not counted in attempted/failed)", file=sys.stderr)
        counts(measured["race"])
    attempted, failed = counts(
        samples_of(measured) + measured["ladder"] + samples_of(traced_run)
    )
    traced_p50 = ms_p(p50_reads(traced_run), 0.5)
    metrics = per_layer(measured, traced, grower, traced_p50)
    return report(correct, attempted, failed, metrics)


def print_families(samples) -> None:
    """Per-family request counts, client p50 and server-side p50 (stderr)."""
    by_family: dict[str, list] = {}
    for sample in samples:
        by_family.setdefault(sample.family, []).append(sample)
    for family, group in sorted(by_family.items()):
        server = median_or_zero(s.timings.get("total_ms", 0.0) for s in group if s.ok)
        print(f"  {family:<20} n={len(group):<5} p50={ms_p(group, 0.5):9.2f} ms  "
              f"server p50={server:7.2f} ms", file=sys.stderr)


def print_layers(traced: dict) -> None:
    window = traced["window_ms"]
    print(f"perfbench: traced layer self time over {traced['requests']} reads "
          f"(mean round trip {window:.3f} ms)", file=sys.stderr)
    for layer, ms in sorted(traced["layers"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<20} {ms:8.3f} ms  {100 * ms / window:5.1f}%", file=sys.stderr)
    print(f"  {'(no span)':<20} {traced['unattributed_ms']:8.3f} ms  "
          f"{100 * traced['unattributed_ms'] / window:5.1f}%", file=sys.stderr)
    unexplained = attribution.unexplained_ms(traced)
    print(f"  {'(unexplained)':<20} {unexplained:8.3f} ms  {100 * unexplained / window:5.1f}%"
          f"  = no span + self time of {', '.join(attribution.ROOT_LAYERS)}", file=sys.stderr)


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            raise RunFailed(f"metric {name} is not finite: {value}")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
