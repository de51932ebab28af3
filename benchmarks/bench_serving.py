"""F-serving — the sharded, batched serving layer over one snapshot bundle.

The paper's §4–5 serving story: immutable snapshots served by a worker
fleet, with request batching and caching navigating the price/performance
curve.  Three axes are pinned here:

* **worker scaling** — aggregate annotation throughput (docs/s) of the
  single-process seed path (per-document ``pipeline.annotate``) vs a
  1-worker and an N-worker process pool behind the serving facade.  The
  ≥3x multi-worker floor only *can* hold on a multi-core host, so it
  gates on ``os.cpu_count()`` — on smaller machines the rows still
  record, the floor is reported informationally.
* **cross-document micro-batching** — per-document ``annotate`` vs
  ``annotate_batch`` over micro-batches, same process (≥1.3x).
* **query serving** — walk queries/s through the full facade
  (router → shards → pool → merge), cold vs query-cache hits.

Parity is unconditional at every scale: spans/entities through any pool
configuration must byte-match the seed path, and walks through the router
must byte-match the single-worker facade.
"""

import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import check_floor, record_result
from repro.kg.persistence import load_snapshot, save_snapshot
from repro.serving.service import ServingService

# Worker count for the fleet rows; the CI smoke job sets BENCH_WORKERS=2
# to stay within runner cores.  The >=3x fleet floor only makes sense for
# a >=4-worker pool on a host with at least that many cores — a 2-worker
# pool physically tops out around 2x, so gating on cpu_count alone would
# demand the impossible on small machines.
WORKERS = int(os.environ.get("BENCH_WORKERS", "4"))
FLEET_FLOOR_APPLIES = WORKERS >= 4 and (os.cpu_count() or 1) >= WORKERS

ANNOTATE_DOCS = 200
BATCH_DOCS = 16
WALK_QUERY_ENTITIES = 8
WALK_QUERIES = 60


def min_time(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def links_signature(per_doc_links):
    return [
        [
            (link.mention.start, link.mention.end, link.mention.surface, link.entity)
            for link in links
        ]
        for links in per_doc_links
    ]


@pytest.fixture(scope="module")
def bundle_dir(bench_kg, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("serving-bundle")
    save_snapshot(bench_kg.store, directory)
    return directory


@pytest.fixture(scope="module")
def corpus_texts(bench_corpus) -> list[str]:
    texts = [doc.full_text for doc in bench_corpus]
    return texts[: min(ANNOTATE_DOCS, len(texts))]


@pytest.fixture(scope="module")
def seed_signature(bundle_dir, corpus_texts):
    """The single-process, per-document reference output (the seed path)."""
    pipeline = load_snapshot(bundle_dir).annotation_pipeline(tier="full")
    return links_signature([pipeline.annotate(text) for text in corpus_texts])


def test_annotation_throughput_worker_scaling(
    benchmark, bench_kg, bundle_dir, corpus_texts, seed_signature
):
    """Docs/s: seed path vs 1-worker vs N-worker pool (batched both)."""
    # Seed path: one process, one document at a time — what serving
    # looked like before this subsystem.
    seed_pipeline = load_snapshot(bundle_dir).annotation_pipeline(tier="full")
    seed_pipeline.annotate(corpus_texts[0])  # warm
    seed_time, _ = min_time(
        lambda: [seed_pipeline.annotate(text) for text in corpus_texts], repeats=2
    )
    seed_docs_per_s = len(corpus_texts) / seed_time

    def fleet_docs_per_s(num_workers: int):
        with ServingService(
            bundle_dir,
            mode="process",
            num_workers=num_workers,
            batch_max_docs=BATCH_DOCS,
        ) as svc:
            svc.annotate_many(corpus_texts)  # spawn + warm every child

            def run():
                svc._cache.clear()  # measure compute, not the result cache
                return svc.annotate_many(corpus_texts)

            elapsed, result = min_time(run, repeats=2)
        return len(corpus_texts) / elapsed, links_signature(result)

    single_docs_per_s, single_signature = fleet_docs_per_s(1)
    fleet_docs, fleet_sig = fleet_docs_per_s(WORKERS)

    # Parity is unconditional: spans/entities through any pool shape must
    # byte-match the per-document seed path.
    assert single_signature == seed_signature
    assert fleet_sig == seed_signature

    speedup_fleet = fleet_docs / seed_docs_per_s
    benchmark.extra_info["docs_per_s_seed"] = seed_docs_per_s
    benchmark.extra_info["docs_per_s_fleet"] = fleet_docs
    benchmark(lambda: None)
    record_result(
        "F-serving",
        {
            "op": "annotation_throughput",
            "workers": 0,
            "batched": False,
            "docs": len(corpus_texts),
            "docs_per_s": round(seed_docs_per_s, 1),
        },
    )
    record_result(
        "F-serving",
        {
            "op": "annotation_throughput",
            "workers": 1,
            "batched": True,
            "docs": len(corpus_texts),
            "docs_per_s": round(single_docs_per_s, 1),
            "speedup_vs_seed": round(single_docs_per_s / seed_docs_per_s, 2),
        },
    )
    record_result(
        "F-serving",
        {
            "op": "annotation_throughput",
            "workers": WORKERS,
            "batched": True,
            "docs": len(corpus_texts),
            "docs_per_s": round(fleet_docs, 1),
            "speedup_vs_seed": round(speedup_fleet, 2),
            "cpus": os.cpu_count(),
        },
    )
    if FLEET_FLOOR_APPLIES:
        check_floor(
            speedup_fleet >= 3.0,
            f"{WORKERS}-worker fleet speedup {speedup_fleet:.2f} < 3x vs seed path",
        )
    else:
        print(
            f"\n[F-serving] {WORKERS} worker(s) on {os.cpu_count()} CPU(s): "
            f"the >=3x fleet floor needs a >=4-worker pool on >=4 cores "
            f"(measured {speedup_fleet:.2f}x)"
        )


def test_cross_document_batching(benchmark, bundle_dir, corpus_texts, seed_signature):
    """Docs/s: per-document calls vs cross-document micro-batches, one process."""
    pipeline = load_snapshot(bundle_dir).annotation_pipeline(tier="full")
    batch_pipeline = load_snapshot(bundle_dir).annotation_pipeline(tier="full")
    pipeline.annotate(corpus_texts[0])
    batch_pipeline.annotate(corpus_texts[0])

    per_doc_time, per_doc = min_time(
        lambda: [pipeline.annotate(text) for text in corpus_texts], repeats=2
    )
    chunks = [
        corpus_texts[start : start + BATCH_DOCS]
        for start in range(0, len(corpus_texts), BATCH_DOCS)
    ]
    batched_time, batched = min_time(
        lambda: [
            links
            for chunk in chunks
            for links in batch_pipeline.annotate_batch(chunk)
        ],
        repeats=2,
    )

    assert links_signature(per_doc) == seed_signature
    assert links_signature(batched) == seed_signature

    per_doc_rate = len(corpus_texts) / per_doc_time
    batched_rate = len(corpus_texts) / batched_time
    speedup = batched_rate / per_doc_rate
    benchmark.extra_info["batching_speedup"] = speedup
    benchmark(lambda: None)
    record_result(
        "F-serving",
        {
            "op": "cross_doc_batching",
            "workers": 1,
            "batched": True,
            "batch_docs": BATCH_DOCS,
            "docs": len(corpus_texts),
            "docs_per_s": round(batched_rate, 1),
            "speedup_vs_per_doc": round(speedup, 2),
        },
    )
    check_floor(
        speedup >= 1.3,
        f"cross-document batching speedup {speedup:.2f} < 1.3x",
    )


def test_walk_query_serving(benchmark, bench_kg, bundle_dir):
    """Walk queries/s through the full facade, plus the cache-hit path."""
    entities = sorted(bench_kg.store.entity_ids())
    queries = [
        tuple(
            entities[(index * WALK_QUERY_ENTITIES + offset) % len(entities)]
            for offset in range(WALK_QUERY_ENTITIES)
        )
        for index in range(WALK_QUERIES)
    ]

    with ServingService(bundle_dir, mode="inline") as svc:
        reference = [svc.random_walks(query, seed=17) for query in queries]

        def cold_run():
            svc._cache.clear()
            return [svc.random_walks(query, seed=17) for query in queries]

        cold_time, cold_results = min_time(cold_run, repeats=3)
        assert cold_results == reference

        # Hot path: every request answered from the versioned cache.
        def hot_run():
            return [svc.random_walks(query, seed=17) for query in queries]

        hot_run()
        hot_time, hot_results = min_time(hot_run, repeats=3)
        assert hot_results == reference
        hit_rate = svc.stats()["serve.cache_hit_rate"]

    # Router invariance: a sharded fleet answers byte-identically.
    with ServingService(
        bundle_dir, mode="process", num_workers=max(2, WORKERS // 2)
    ) as fleet:
        fleet_results = [fleet.random_walks(query, seed=17) for query in queries[:10]]
    assert fleet_results == reference[:10]

    cold_qps = WALK_QUERIES / cold_time
    hot_qps = WALK_QUERIES / hot_time
    benchmark.extra_info["cold_qps"] = cold_qps
    benchmark.extra_info["hot_qps"] = hot_qps
    benchmark(lambda: None)
    record_result(
        "F-serving",
        {
            "op": "walk_queries",
            "mode": "cold",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(cold_qps, 1),
        },
    )
    record_result(
        "F-serving",
        {
            "op": "walk_queries",
            "mode": "cached",
            "entities_per_query": WALK_QUERY_ENTITIES,
            "queries_per_s": round(hot_qps, 1),
            "cache_hit_rate": round(hit_rate, 3),
        },
    )
    check_floor(hot_qps >= 2.0 * cold_qps, f"cache hit path {hot_qps / cold_qps:.1f}x < 2x cold")
