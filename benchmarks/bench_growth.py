"""F-growth — incremental delta publishing vs full snapshot re-saves.

The live-growth story (§5): the construction tier streams generations by
writing small delta bundles, not by re-serializing the world.  This
benchmark pins the three costs that make that viable:

* **delta_publish** vs **full_resave** — publishing a generation of ~20
  changed facts must cost far less than re-saving the full bundle (the
  sublinearity gate: per-generation cost tracks the delta, not the KG);
* **overlay_read** — adjacency reads through the delta overlay, with the
  overhead versus a plain mmap'd snapshot;
* **generation_swap** — how long ``adopt_generation`` blocks while the
  serving layer hot-swaps onto a freshly published generation.
"""

import time

import pytest

from benchmarks.conftest import SCALE, check_floor, record_result
from repro.common import ids
from repro.kg.deltas import GenerationPublisher, read_chain
from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.persistence import load_snapshot, save_snapshot
from repro.kg.triple import LiteralType, entity_fact, literal_fact
from repro.serving.requests import NeighborhoodRequest
from repro.serving.service import ServingService

RELATED = ids.predicate_id("related_to")
NOTE = ids.predicate_id("note")
GENERATIONS = 6
FACTS_PER_GENERATION = 20
READ_QUERIES = 2000


@pytest.fixture(scope="module")
def growth_kg():
    """A private mutable world (the session ``bench_kg`` is read-only)."""
    return generate_kg(SyntheticKGConfig(seed=7, scale=SCALE))


def _mutate(store, round_no: int) -> list[tuple[str, str, str]]:
    entity_ids = store.entity_ids()
    keys = []
    for i in range(FACTS_PER_GENERATION // 2):
        a = entity_ids[(round_no * 31 + i * 7) % len(entity_ids)]
        b = entity_ids[(round_no * 17 + i * 13 + 1) % len(entity_ids)]
        c = entity_ids[(round_no * 11 + i * 3 + 2) % len(entity_ids)]
        facts = [
            entity_fact(a, RELATED, b, confidence=0.9, sources=("bench",),
                        updated_at=float(round_no)),
            literal_fact(c, NOTE, f"note {round_no}/{i}", LiteralType.STRING,
                         confidence=0.8, sources=("bench",), updated_at=float(round_no)),
        ]
        for fact in facts:
            store.add(fact)
            keys.append(fact.key)
    return keys


def test_delta_publish_vs_full_resave(benchmark, growth_kg, tmp_path_factory):
    store = growth_kg.store
    bundle = tmp_path_factory.mktemp("growth-bundle")
    # compact_every above GENERATIONS: measure pure delta publishes.
    publisher = GenerationPublisher(
        store, bundle, compact_every=GENERATIONS + 2
    )

    publish_times = []
    for round_no in range(GENERATIONS):
        publisher.record(keys=_mutate(store, round_no))
        start = time.perf_counter()
        info = publisher.publish()
        publish_times.append(time.perf_counter() - start)
        assert info is not None

    resave_dir = tmp_path_factory.mktemp("full-resave")
    start = time.perf_counter()
    save_snapshot(store, resave_dir, layers=("adjacency", "context", "alias"))
    full_resave = time.perf_counter() - start
    benchmark(lambda: save_snapshot(store, resave_dir, layers=("adjacency", "context", "alias")))

    delta_ms = min(publish_times) * 1000
    full_ms = full_resave * 1000
    stats = store.stats()
    record_result(
        "F-growth",
        {
            "op": "delta_publish",
            "new_ms": round(delta_ms, 3),
            "generations": GENERATIONS,
            "changed_per_gen": FACTS_PER_GENERATION,
            "facts": stats.num_facts,
        },
    )
    record_result(
        "F-growth",
        {
            "op": "full_resave",
            "new_ms": round(full_ms, 3),
            "facts": stats.num_facts,
            "delta_speedup": round(full_ms / delta_ms, 1),
        },
    )
    # The sublinearity gate: a generation of ~20 changed facts must
    # publish well under a full re-serialization of the world.
    check_floor(
        delta_ms < full_ms,
        f"delta publish ({delta_ms:.1f}ms) not cheaper than full re-save "
        f"({full_ms:.1f}ms)",
    )


def test_overlay_read_overhead_and_swap_gap(benchmark, growth_kg, tmp_path_factory):
    store = growth_kg.store
    bundle = tmp_path_factory.mktemp("overlay-bundle")
    publisher = GenerationPublisher(
        store, bundle, compact_every=GENERATIONS + 2
    )
    for round_no in range(3):
        publisher.record(keys=_mutate(store, 100 + round_no))
        assert publisher.publish() is not None

    plain_dir = tmp_path_factory.mktemp("plain-bundle")
    save_snapshot(store, plain_dir, layers=("adjacency", "context", "alias"))

    # The chain loader collapses the delta overlay into one CSR at load
    # time, so per-query overhead vs a plain snapshot should be ~zero —
    # this row pins that the merge cost doesn't leak into the hot path.
    overlay = load_snapshot(bundle).adjacency
    plain = load_snapshot(plain_dir).adjacency
    assert overlay is not None and plain is not None
    probes = [
        store.entity_ids()[(i * 37) % len(store.entity_ids())]
        for i in range(READ_QUERIES)
    ]

    def read_all(adjacency):
        total = 0
        for node in probes:
            total += len(adjacency.neighbors(node))
        return total

    def best_of(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    assert read_all(overlay) == read_all(plain)
    plain_best = best_of(lambda: read_all(plain))
    overlay_best = best_of(lambda: read_all(overlay))
    benchmark(lambda: read_all(overlay))

    mean_query_us = overlay_best / READ_QUERIES * 1e6
    overhead_pct = (overlay_best / plain_best - 1.0) * 100
    record_result(
        "F-growth",
        {
            "op": "overlay_read",
            "mean_query_us": round(mean_query_us, 3),
            "overhead_pct": round(overhead_pct, 1),
            "chain_length": read_chain(bundle)["next_seq"] - 1,
            "queries": READ_QUERIES,
        },
    )

    # Swap gap: how long adopt_generation blocks the serving layer.
    with ServingService(bundle, mode="inline") as service:
        probe = NeighborhoodRequest(entities=(store.entity_ids()[0],), hops=1)
        assert service.serve(probe).ok
        publisher.record(keys=_mutate(store, 200))
        assert publisher.publish() is not None
        start = time.perf_counter()
        service.adopt_generation(bundle)
        swap_ms = (time.perf_counter() - start) * 1000
        response = service.serve(probe)
        assert response.ok and response.store_version == store.version
    record_result(
        "F-growth",
        {"op": "generation_swap", "new_ms": round(swap_ms, 3), "workers": 2},
    )
