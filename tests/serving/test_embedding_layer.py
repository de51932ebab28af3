"""Serving over the persisted embedding bundle layer.

These tests prove the PR-6 serving contract: replicas boot by
*adopting* the persisted embedding layer (mmap, no training), a
process-pool fleet answers embedding requests byte-identically to an
in-process suite, and the fact log is never replayed on the adoption
path — a corrupted ``facts.jsonl`` cannot hurt Verify/Knn/Similarity
serving.
"""

from __future__ import annotations

import shutil

import pytest

from repro.embeddings.suite import ADOPTED
from repro.serving.requests import KnnRequest, SimilarityRequest, VerifyRequest
from repro.serving.service import ServingService


@pytest.fixture(scope="module")
def symbols(bundle_dir):
    """(entities, candidate triples) the persisted suite knows about."""
    with ServingService(bundle_dir) as svc:
        suite = svc._pool.local_state.embedding_suite()
        dataset = suite.trained.dataset
        entities = tuple(dataset.entities[:8])
        triples = tuple(dataset.decode(*map(int, row)) for row in dataset.triples[:6])
    return entities, triples


def _embedding_requests(symbols):
    entities, triples = symbols
    return (
        KnnRequest(entities=entities, k=5),
        VerifyRequest(candidates=triples),
        SimilarityRequest(pairs=((entities[0], entities[1]), (entities[2], entities[3]))),
    )


@pytest.fixture(scope="module")
def reference_payloads(bundle_dir, symbols):
    """Payloads from an inline service over the pristine bundle."""
    with ServingService(bundle_dir) as svc:
        assert svc._pool.local_state.embedding_suite().source == ADOPTED
        return [svc.serve(r).payload for r in _embedding_requests(symbols)]


@pytest.fixture(scope="module")
def corrupt_bundle(bundle_dir, tmp_path_factory):
    """A copy of the bundle whose fact log is garbage.

    Any code path that replays ``facts.jsonl`` — i.e. retraining instead
    of adopting the persisted layer — raises on this bundle.
    """
    directory = tmp_path_factory.mktemp("corrupt-facts") / "bundle"
    shutil.copytree(bundle_dir, directory)
    (directory / "facts.jsonl").write_text("{this is not json\n")
    return directory


class TestWorkerAdoption:
    def test_worker_state_adopts_persisted_layer(self, bundle_dir):
        with ServingService(bundle_dir) as svc:
            assert svc._pool.local_state.embedding_suite().source == ADOPTED

    def test_adoption_never_invokes_trainer(self, bundle_dir, symbols, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("replica retrained instead of adopting the layer")

        monkeypatch.setattr("repro.embeddings.suite.train_embeddings", boom)
        entities, _triples = symbols
        with ServingService(bundle_dir) as svc:
            response = svc.serve(KnnRequest(entities=entities[:3], k=4))
        assert response.ok
        assert len(response.payload) == 3

    def test_adoption_ignores_corrupt_fact_log(
        self, corrupt_bundle, symbols, reference_payloads
    ):
        with ServingService(corrupt_bundle) as svc:
            payloads = [svc.serve(r).payload for r in _embedding_requests(symbols)]
        assert payloads == reference_payloads


class TestProcessReplicas:
    def test_replicas_serve_identical_verdicts_without_retraining(
        self, corrupt_bundle, symbols, reference_payloads
    ):
        """Two process replicas answer from one persisted layer.

        The fact log in this bundle is corrupt, so any replica that
        tried to retrain (rather than mmap-adopt the layer) would crash;
        identical payloads prove both replicas served the persisted
        embeddings.
        """
        with ServingService(corrupt_bundle, mode="process", num_workers=2) as svc:
            payloads = [svc.serve(r).payload for r in _embedding_requests(symbols)]
            # Serve each request once more so both workers see traffic.
            repeats = [svc.serve(r).payload for r in _embedding_requests(symbols)]
        assert payloads == reference_payloads
        assert repeats == reference_payloads

    def test_inline_replicas_share_one_layer(self, corrupt_bundle, symbols, reference_payloads):
        with ServingService(corrupt_bundle, mode="inline", num_workers=2) as svc:
            payloads = [svc.serve(r).payload for r in _embedding_requests(symbols)]
        assert payloads == reference_payloads


class TestKnnServing:
    def test_knn_request_is_shard_invariant(self, bundle_dir, symbols):
        entities, _triples = symbols
        results = []
        for mode, num_workers in (("inline", 1), ("inline", 3), ("process", 2)):
            with ServingService(bundle_dir, mode=mode, num_workers=num_workers) as svc:
                results.append(svc.serve(KnnRequest(entities=entities, k=5)).payload)
        assert results[0] == results[1] == results[2]

    def test_served_knn_matches_backend_batch(self, bundle_dir, symbols):
        entities, _triples = symbols
        with ServingService(bundle_dir) as svc:
            served = svc.serve(KnnRequest(entities=entities, k=5)).payload
            suite = svc._pool.local_state.embedding_suite()
            direct = suite.embedding_service.knn_many(list(entities), k=5)
        assert [[(h.key, h.score) for h in hits] for hits in served] == [
            [(h.key, h.score) for h in hits] for hits in direct
        ]
