"""Tests for the embedding service."""

import numpy as np
import pytest

from repro.common.errors import EmbeddingError, IndexError_
from repro.vector.index import IVFIndex
from repro.vector.service import EmbeddingService


class TestService:
    def test_vector_matches_model(self, trained):
        service = EmbeddingService(trained.trained)
        entity = trained.dataset.entities[0]
        assert np.allclose(service.vector(entity), trained.trained.entity_vector(entity))

    def test_cache_hits(self, trained):
        service = EmbeddingService(trained.trained)
        entity = trained.dataset.entities[0]
        service.vector(entity)
        service.vector(entity)
        assert service._cache.hit_rate == pytest.approx(0.5)

    def test_similarity_self(self, trained):
        service = EmbeddingService(trained.trained)
        entity = trained.dataset.entities[0]
        assert service.similarity(entity, entity) == pytest.approx(1.0)

    def test_knn_excludes_self(self, trained):
        service = EmbeddingService(trained.trained)
        entity = trained.dataset.entities[0]
        hits = service.knn(entity, k=5)
        assert entity not in {hit.key for hit in hits}
        assert len(hits) == 5

    def test_knn_include_self(self, trained):
        service = EmbeddingService(trained.trained)
        entity = trained.dataset.entities[0]
        hits = service.knn(entity, k=3, exclude_self=False)
        assert hits[0].key == entity

    def test_knn_vector_query(self, trained):
        service = EmbeddingService(trained.trained)
        entity = trained.dataset.entities[3]
        hits = service.index.search(service.vector(entity), 1)
        assert hits[0].key == entity

    def test_batch_similarity_unknowns_zero(self, trained):
        service = EmbeddingService(trained.trained)
        entity = trained.dataset.entities[0]
        sims = service.batch_similarity([(entity, entity), (entity, "entity:ghost")])
        assert sims[0] == pytest.approx(1.0)
        assert sims[1] == 0.0

    def test_custom_index_populated(self, trained):
        index = IVFIndex(nlist=4, nprobe=4, seed=0)
        service = EmbeddingService(trained.trained, index=index)
        assert len(index) == trained.trained.model.num_entities
        entity = trained.dataset.entities[0]
        assert service.knn(entity, k=1)

    def test_require_entity(self, trained):
        service = EmbeddingService(trained.trained)
        with pytest.raises(IndexError_):
            service.require_entity("entity:ghost")

    def test_metrics_recorded(self, trained):
        service = EmbeddingService(trained.trained)
        entity = trained.dataset.entities[0]
        service.knn(entity, k=2)
        assert service.metrics.timer_stats("knn").count == 1


class TestKnnMany:
    def test_matches_scalar_knn_bitwise(self, trained):
        service = EmbeddingService(trained.trained)
        entities = trained.dataset.entities[:12]
        batched = service.knn_many(entities, k=5)
        scalar = [service.knn(entity, k=5) for entity in entities]
        assert [[(h.key, h.score) for h in hits] for hits in batched] == [
            [(h.key, h.score) for h in hits] for hits in scalar
        ]

    def test_matches_scalar_with_ivf_index(self, trained):
        index = IVFIndex(nlist=4, nprobe=2, seed=0)
        service = EmbeddingService(trained.trained, index=index)
        entities = trained.dataset.entities[:12]
        batched = service.knn_many(entities, k=5)
        scalar = [service.knn(entity, k=5) for entity in entities]
        assert [[(h.key, h.score) for h in hits] for hits in batched] == [
            [(h.key, h.score) for h in hits] for hits in scalar
        ]

    def test_exclude_self_per_entity(self, trained):
        service = EmbeddingService(trained.trained)
        entities = trained.dataset.entities[:6]
        for entity, hits in zip(entities, service.knn_many(entities, k=4)):
            assert entity not in {h.key for h in hits}
            assert len(hits) == 4

    def test_include_self(self, trained):
        service = EmbeddingService(trained.trained)
        entities = trained.dataset.entities[:4]
        for entity, hits in zip(
            entities, service.knn_many(entities, k=3, exclude_self=False)
        ):
            assert hits[0].key == entity

    def test_unknown_entity_raises_like_scalar_path(self, trained):
        service = EmbeddingService(trained.trained)
        known = trained.dataset.entities[0]
        with pytest.raises(EmbeddingError):
            service.knn_many([known, "entity:ghost"], k=3)

    def test_empty_input(self, trained):
        service = EmbeddingService(trained.trained)
        assert service.knn_many([], k=3) == []
