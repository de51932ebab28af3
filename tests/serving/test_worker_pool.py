"""WorkerState + WorkerPool: request execution and executor parity."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.kg.persistence import load_snapshot
from repro.serving.protocol import payload_to_wire
from repro.serving.requests import (
    AnnotateRequest,
    NeighborhoodRequest,
    RelatedRequest,
    WalkRequest,
)
from repro.serving.service import ServingService
from repro.serving.worker import (
    WorkerPool,
    WorkerState,
    entity_walk_seed,
)


@pytest.fixture(scope="module")
def worker(bundle_dir) -> WorkerState:
    return WorkerState(bundle_dir)


class TestWorkerState:
    def test_walks_match_per_entity_engine_calls(self, bundle_dir, worker, seed_entities):
        request = WalkRequest(entities=tuple(seed_entities), seed=11)
        served = worker.execute(request)
        cold = load_snapshot(bundle_dir).engine()
        expected = [
            cold.random_walks(
                [entity],
                walk_length=request.walk_length,
                walks_per_entity=request.walks_per_entity,
                seed=entity_walk_seed(11, entity),
            )
            for entity in seed_entities
        ]
        assert served == expected

    def test_walk_seed_derivation_is_stable_and_distinct(self):
        assert entity_walk_seed(3, "entity:a") == entity_walk_seed(3, "entity:a")
        assert entity_walk_seed(3, "entity:a") != entity_walk_seed(4, "entity:a")
        assert entity_walk_seed(3, "entity:a") != entity_walk_seed(3, "entity:b")

    def test_neighborhoods_are_sorted_engine_results(self, bundle_dir, worker, seed_entities):
        served = worker.execute(NeighborhoodRequest(entities=tuple(seed_entities[:5]), hops=2))
        cold = load_snapshot(bundle_dir).engine()
        assert served == [
            sorted(cold.neighborhood(entity, hops=2)) for entity in seed_entities[:5]
        ]

    def test_related_entities_reuse_worker_engine(self, worker, seed_entities):
        results = worker.execute(RelatedRequest(entities=tuple(seed_entities[:3]), k=5))
        assert len(results) == 3
        for hits in results:
            assert len(hits) <= 5
            for entity, score in hits:
                assert isinstance(entity, str) and isinstance(score, float)
        # The backend adopted the worker's engine (no second CSR build).
        assert worker.related_backend().engine is worker.engine

    def test_annotation_matches_per_document_pipeline(self, worker, sample_texts):
        served = worker.execute(AnnotateRequest(texts=tuple(sample_texts[:4])))
        reference_pipeline = worker.snapshot.annotation_pipeline(tier="full")
        for links, text in zip(served, sample_texts[:4]):
            expected = reference_pipeline.annotate(text)
            assert [
                (link.mention.start, link.mention.end, link.mention.surface, link.entity)
                for link in links
            ] == [
                (link.mention.start, link.mention.end, link.mention.surface, link.entity)
                for link in expected
            ]

    def test_unsupported_request_type(self, worker):
        with pytest.raises(TypeError):
            worker.execute(object())

    def test_racing_threads_share_one_build_of_each_helper(self, bundle_dir):
        """The gateway's executor threads share an inline pool's state."""
        state = WorkerState(bundle_dir)
        start = threading.Barrier(8, timeout=60)

        def build(_index):
            start.wait()
            return state.related_backend(), state.pipeline("full")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as threads:
                built = list(threads.map(build, range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert all(backend is built[0][0] for backend, _pipeline in built)
        assert all(pipeline is built[0][1] for _backend, pipeline in built)


class TestWorkerPool:
    def test_mode_validation(self, bundle_dir):
        with pytest.raises(ValueError):
            WorkerPool(bundle_dir, mode="quantum")
        with pytest.raises(ValueError):
            WorkerPool(bundle_dir, num_workers=0)

    def test_inline_worker_counts_agree(self, bundle_dir, seed_entities):
        request = WalkRequest(entities=tuple(seed_entities), seed=5)
        with WorkerPool(bundle_dir, mode="inline") as inline:
            one_result = inline.run(request)
        with WorkerPool(bundle_dir, mode="inline", num_workers=4) as wide:
            four_result = wide.run(request)
        assert one_result == four_result

    def test_process_mode_agrees(self, bundle_dir, seed_entities, sample_texts):
        walk_request = WalkRequest(entities=tuple(seed_entities), seed=5)
        annotate_request = AnnotateRequest(texts=tuple(sample_texts[:3]))
        with WorkerPool(bundle_dir, mode="inline") as inline:
            expected_walks = inline.run(walk_request)
            expected_links = inline.run(annotate_request)
        with WorkerPool(bundle_dir, mode="process", num_workers=2) as procs:
            assert procs.run(walk_request) == expected_walks
            served_links = procs.run(annotate_request)
        assert [
            [(link.mention.start, link.mention.end, link.entity) for link in links]
            for links in served_links
        ] == [
            [(link.mention.start, link.mention.end, link.entity) for link in links]
            for links in expected_links
        ]

    def test_map_preserves_request_order(self, bundle_dir, seed_entities):
        requests = [
            WalkRequest(entities=(entity,), seed=2) for entity in seed_entities[:6]
        ]
        with WorkerPool(bundle_dir, mode="inline", num_workers=3) as pool:
            mapped = pool.map(requests)
            expected = [pool.run(request) for request in requests]
        assert mapped == expected

    def test_metrics_and_stats(self, bundle_dir, seed_entities):
        with WorkerPool(bundle_dir, mode="inline") as pool:
            pool.run(WalkRequest(entities=tuple(seed_entities[:2])))
            pool.run(NeighborhoodRequest(entities=tuple(seed_entities[:2])))
            stats = pool.stats()
        assert stats["counter.pool.requests"] == 2.0
        assert stats["counter.pool.requests.WalkRequest"] == 1.0
        assert stats["hist.pool.latency.count"] == 2.0
        assert stats["pool.workers"] == 1.0

    def test_closed_pool_rejects_requests(self, bundle_dir):
        pool = WorkerPool(bundle_dir, mode="inline")
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.submit(WalkRequest(entities=("x",)))

    def test_store_version_matches_bundle(self, bundle_dir, serving_kg):
        with WorkerPool(bundle_dir, mode="inline") as pool:
            assert pool.store_version == serving_kg.store.version


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (zombies have)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rfind(b")") + 2 :][:1] not in (b"Z", b"X")


class TestProcessFleet:
    def test_workers_exit_when_their_parent_is_killed(self, bundle_dir, seed_entities):
        script = textwrap.dedent(
            """
            import multiprocessing, sys, time
            from repro.serving.requests import NeighborhoodRequest
            from repro.serving.worker import WorkerPool

            pool = WorkerPool(sys.argv[1], mode="process", num_workers=2)
            pool.run(NeighborhoodRequest(entities=(sys.argv[2],), hops=1))
            print(*[child.pid for child in multiprocessing.active_children()], flush=True)
            time.sleep(120)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        parent = subprocess.Popen(
            [sys.executable, "-c", script, str(bundle_dir), seed_entities[0]],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env,
        )
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=10)
            parent.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []

    def test_a_killed_worker_is_replaced_alone(self, bundle_dir, seed_entities):
        request = NeighborhoodRequest(entities=tuple(seed_entities[:8]), hops=1)
        wire_type = type(request).wire_type
        others = set(multiprocessing.active_children())
        with ServingService(bundle_dir, mode="process", num_workers=2) as service:
            before = service.serve(request)
            assert before.ok
            fleet = set(multiprocessing.active_children()) - others
            victim, survivor = sorted(fleet, key=lambda process: process.pid)
            respawns = service.stats().get("counter.pool.respawns", 0.0)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert not victim.is_alive()
            service._cache.clear()
            after = service.serve(request)
            assert after.ok
            assert payload_to_wire(wire_type, after.payload) == payload_to_wire(
                wire_type, before.payload
            )
            assert service.stats()["counter.pool.respawns"] == respawns + 1
            assert survivor.is_alive()
            assert survivor in set(multiprocessing.active_children()) - others

    def test_concurrent_submitters_get_their_own_answers(self, bundle_dir, seed_entities):
        requests = [
            WalkRequest(entities=(entity,), walk_length=3, walks_per_entity=2, seed=seed)
            for seed in range(4)
            for entity in seed_entities
        ]
        with WorkerPool(bundle_dir, mode="inline") as inline:
            expected = [inline.run(request) for request in requests]
        with WorkerPool(bundle_dir, mode="process", num_workers=2) as pool:
            with ThreadPoolExecutor(max_workers=8) as threads:
                answered = list(threads.map(pool.run, requests, timeout=120))
            assert all(not worker.pending for worker in pool._executor._workers)
        assert answered == expected
