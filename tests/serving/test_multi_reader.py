"""Multi-reader snapshots: concurrent readers match a single cold engine.

The serving tier's correctness rests on one property: a bundle's columnar
layers are immutable, so N concurrent readers — worker threads sharing one
loaded snapshot, or subprocesses each mapping the bundle — must produce
byte-identical walks and annotation spans to a single cold engine.  The
thread cases specifically hammer the lazily-materialised state the PR's
thread-safety fix guards: ``SnapshotStore``'s fact-log replay,
``CSRAdjacency``'s derived row caches, and ``AdjacencyIndex`` rebuilds.
"""

from __future__ import annotations

import multiprocessing
import threading

from repro.kg.persistence import load_snapshot

NUM_THREADS = 8
WALK_SEED = 13


def links_signature(links) -> list[tuple]:
    return [
        (link.mention.start, link.mention.end, link.mention.surface, link.entity)
        for link in links
    ]


def _read_bundle(args) -> tuple:
    """Subprocess entry: cold-load the bundle, answer the standard queries."""
    bundle_dir, seeds, texts = args
    snap = load_snapshot(bundle_dir)
    engine = snap.engine()
    walks = engine.random_walks(seeds, walk_length=6, walks_per_entity=3, seed=WALK_SEED)
    pipeline = snap.annotation_pipeline(tier="full")
    spans = [links_signature(pipeline.annotate(text)) for text in texts]
    return walks, spans


class TestThreadReaders:
    def test_shared_snapshot_threads_match_cold_engine(
        self, bundle_dir, seed_entities, sample_texts
    ):
        # Baseline: one cold engine, nothing shared.
        baseline_walks, baseline_spans = _read_bundle(
            (bundle_dir, seed_entities, sample_texts[:4])
        )

        # One shared snapshot; every thread traverses and annotates
        # concurrently, racing the lazy caches from cold.
        snap = load_snapshot(bundle_dir)
        engine = snap.engine()
        pipeline = snap.annotation_pipeline(tier="full")
        results: list[tuple] = [None] * NUM_THREADS
        errors: list[BaseException] = []
        barrier = threading.Barrier(NUM_THREADS)

        def reader(slot: int) -> None:
            try:
                barrier.wait()
                walks = engine.random_walks(
                    seed_entities, walk_length=6, walks_per_entity=3, seed=WALK_SEED
                )
                spans = [
                    links_signature(pipeline.annotate(text))
                    for text in sample_texts[:4]
                ]
                # Exercise the lazy fact replay and derived caches too.
                counts = engine.co_neighbor_counts(seed_entities[0])
                degree = len(snap.store)
                results[slot] = (walks, spans, counts, degree)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(slot,)) for slot in range(NUM_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert all(result is not None for result in results)
        for walks, spans, counts, degree in results:
            assert walks == baseline_walks
            assert spans == baseline_spans
            assert counts == results[0][2]
            assert degree == results[0][3]

    def test_concurrent_fact_replay_is_consistent(self, bundle_dir, serving_kg):
        """All threads racing the lazy fact-log replay see the full graph."""
        snap = load_snapshot(bundle_dir)
        store = snap.store
        expected_facts = len(serving_kg.store)
        sizes: list[int] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(NUM_THREADS)

        def reader() -> None:
            try:
                barrier.wait()
                sizes.append(len(store))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(NUM_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert sizes == [expected_facts] * NUM_THREADS

    def test_concurrent_derived_cache_builds(self, bundle_dir, seed_entities):
        """CSRAdjacency's lazy row caches survive a cold concurrent rush."""
        snap = load_snapshot(bundle_dir)
        adjacency = snap.adjacency
        assert adjacency is not None
        outputs: list[tuple] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(NUM_THREADS)

        def reader() -> None:
            try:
                barrier.wait()
                id_rows = adjacency.neighbor_id_rows()
                second_hop = adjacency.second_hop_string_rows()
                outputs.append(
                    (
                        id(id_rows),
                        len(id_rows),
                        sum(map(len, id_rows)),
                        id(second_hop),
                        len(second_hop),
                    )
                )
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(NUM_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(outputs)) == 1
        assert outputs[0][1] == adjacency.num_nodes
        assert outputs[0][2] == adjacency.num_edges


class TestProcessReaders:
    def test_subprocess_readers_match_cold_engine(
        self, bundle_dir, seed_entities, sample_texts
    ):
        baseline = _read_bundle((bundle_dir, seed_entities, sample_texts[:3]))
        with multiprocessing.Pool(2) as pool:
            replies = pool.map(
                _read_bundle,
                [(bundle_dir, seed_entities, sample_texts[:3])] * 2,
            )
        for walks, spans in replies:
            assert walks == baseline[0]
            assert spans == baseline[1]

    def test_embedding_backends_identical_across_modes(self, bundle_dir):
        """The lazily trained embedding suite is a deterministic replica:
        a subprocess worker's rankings/verdicts/similarities must be
        bit-identical to the in-process one's."""
        from repro.serving.requests import (
            FactRankRequest,
            SimilarityRequest,
            VerifyRequest,
        )
        from repro.serving.service import ServingService

        with ServingService(bundle_dir) as inline_svc:
            suite = inline_svc._pool.local_state.embedding_suite()
            dataset = suite.trained.dataset
            triples = [dataset.decode(*map(int, row)) for row in dataset.triples[:3]]
            requests = [
                FactRankRequest(entities=(triples[0][0],), predicate=dataset.relations[0]),
                VerifyRequest(candidates=tuple(triples)),
                SimilarityRequest(pairs=((dataset.entities[0], dataset.entities[1]),)),
            ]
            inline_answers = [inline_svc.serve(r).payload for r in requests]
        with ServingService(bundle_dir, mode="process", num_workers=1) as proc_svc:
            proc_answers = [proc_svc.serve(r).payload for r in requests]
        assert proc_answers == inline_answers
