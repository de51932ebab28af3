"""Tests for the related-entities services."""

import tracemalloc

import numpy as np
import pytest

from repro.serving.worker import WorkerConfig
from repro.services.related_entities import (
    EmbeddingRelatedEntities,
    TraversalRelatedEntities,
    evaluate_related,
    randomized_svd,
)
from repro.vector.service import EmbeddingService

SERVED = WorkerConfig()  # the related-entities recipe every serving worker builds


def served_recipe(**overrides) -> dict:
    recipe = dict(
        dim=SERVED.related_dim,
        walk_length=SERVED.related_walk_length,
        walks_per_entity=SERVED.related_walks_per_entity,
        window=SERVED.related_window,
        seed=SERVED.related_seed,
    )
    return {**recipe, **overrides}


def dense_reference_ppmi(backend, walk_length, walks_per_entity, window, seed):
    """The n×n PPMI the build computed before it went sparse (test oracle)."""
    walks, snapshot = backend.engine.random_walks_ids(
        backend.entities, walk_length=walk_length, walks_per_entity=walks_per_entity, seed=seed
    )
    local_of = [-1] * (len(snapshot.dictionary) + 1)
    for local, entity in enumerate(backend.entities):
        node_id = snapshot.dictionary.get(entity)
        if node_id is not None:
            local_of[node_id] = local
    n = len(backend.entities)
    matrix = np.zeros((n, n))
    for walk in walks:
        indexed = [local_of[node] for node in walk if local_of[node] >= 0]
        for i, center in enumerate(indexed):
            for j in range(max(0, i - window), min(len(indexed), i + window + 1)):
                if i != j:
                    matrix[center, indexed[j]] += 1
    total = matrix.sum()
    row_sums = matrix.sum(axis=1, keepdims=True)
    col_sums = matrix.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = row_sums @ col_sums / total
        pmi = np.log(np.where(expected > 0, matrix * total / np.maximum(expected, 1e-12), 1.0))
    ppmi = np.maximum(pmi, 0.0)
    ppmi[~np.isfinite(ppmi)] = 0.0
    return ppmi


@pytest.fixture(scope="module")
def traversal(kg):
    return TraversalRelatedEntities(kg.store, dim=16, walks_per_entity=4, seed=3)


@pytest.fixture(scope="module")
def kge_backend(kg, trained):
    return EmbeddingRelatedEntities(EmbeddingService(trained.trained), kg.store)


class TestTraversal:
    def test_returns_k(self, kg, traversal):
        seed = next(iter(kg.truth.related))
        suggestions = traversal.related(seed, k=5)
        assert len(suggestions) <= 5
        assert all(item.entity != seed for item in suggestions)

    def test_unknown_entity_empty(self, traversal):
        assert traversal.related("entity:ghost", k=5) == []

    def test_same_type_filter(self, kg, traversal):
        seed = next(iter(kg.truth.related))
        seed_types = set(kg.store.entity(seed).types)
        for item in traversal.related(seed, k=10):
            assert seed_types & set(kg.store.entity(item.entity).types)

    def test_deterministic(self, kg):
        seed_entity = next(iter(kg.truth.related))
        a = TraversalRelatedEntities(kg.store, dim=8, walks_per_entity=2, seed=5)
        b = TraversalRelatedEntities(kg.store, dim=8, walks_per_entity=2, seed=5)
        assert [x.entity for x in a.related(seed_entity, k=5)] == [
            x.entity for x in b.related(seed_entity, k=5)
        ]

    def test_vector_accessor(self, kg, traversal):
        seed = next(iter(kg.truth.related))
        assert traversal.vector(seed).shape == (16,)
        assert traversal.vector("entity:ghost").shape == (16,)

    def test_quality_beats_chance(self, kg, traversal):
        report = evaluate_related(traversal, kg.truth.related, k=10, max_seeds=40)
        # Random precision@10 over ~350 entities with ~3 relevant ≈ 0.01.
        assert report.precision_at_k > 0.05
        assert report.num_seeds == 40


class TestSparseBuild:
    RECIPE = served_recipe()
    PPMI_ARGS = (
        SERVED.related_walk_length,
        SERVED.related_walks_per_entity,
        SERVED.related_window,
        SERVED.related_seed,
    )

    @pytest.fixture(scope="class")
    def served(self, kg):
        return TraversalRelatedEntities(kg.store, **self.RECIPE)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_ppmi_matches_dense_reference(self, kg, served, stride):
        # stride 2 keeps every other entity, so walks pass through nodes
        # without a local row and the pair windows must skip them.
        backend = served if stride == 1 else TraversalRelatedEntities(
            kg.store, entities=served.entities[::stride], **self.RECIPE
        )
        n = len(backend.entities)
        rows, cols, values = backend.ppmi(*self.PPMI_ARGS)
        assert len(np.unique(rows * n + cols)) == len(values)
        sparse = np.zeros((n, n))
        sparse[rows, cols] = values
        reference = dense_reference_ppmi(backend, *self.PPMI_ARGS)
        assert np.count_nonzero(reference) > 0
        np.testing.assert_allclose(sparse, reference, rtol=0, atol=1e-12)

    def test_singular_values_match_exact_svd(self, served):
        dim, n = self.RECIPE["dim"], len(served.entities)
        exact = np.linalg.svd(dense_reference_ppmi(served, *self.PPMI_ARGS), compute_uv=False)
        _u, s = randomized_svd(*served.ppmi(*self.PPMI_ARGS), n, dim, self.RECIPE["seed"])
        # A range finder's singular values are Ritz values: never above the
        # exact ones.  The spectrum is flat near rank dim (s32/s33 ≈ 1.03
        # here), so the trailing estimates converge slowest: measured
        # relative error ≤ 1.2e-6 over the top 8 and ≤ 1.6% over all 32.
        assert np.all(s[:dim] <= exact[:dim] * (1 + 1e-9))
        np.testing.assert_allclose(s[:8], exact[:8], rtol=1e-4)
        np.testing.assert_allclose(s[:dim], exact[:dim], rtol=0.03)

    def test_build_never_allocates_dense_square(self, kg, served):
        # One walk per entity keeps this small world's PPMI about as sparse
        # as served worlds are (6% of n² here, 4% at scale 3).  The served
        # six walks fill 19% of it, and at that density the COO arrays and
        # their product temporaries alone outgrow one n×n float64 array.
        n = len(served.entities)
        tracemalloc.start()
        try:
            served._build(walk_length=8, walks_per_entity=1, window=3, seed=0, dim=32)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    # p@10 / r@10 of the dense build this one replaced (exact SVD), served
    # recipe, averaged over related seeds 0-3.  At this scale one build's
    # p@10 moves by up to 0.03 with its seed, so single-seed floors would
    # measure luck.
    DENSE_PRECISION_AT_10 = 0.15725
    DENSE_RECALL_AT_10 = 0.26841

    def test_quality_no_worse_than_dense_build(self, kg):
        reports = [
            evaluate_related(
                TraversalRelatedEntities(kg.store, **served_recipe(seed=seed)),
                kg.truth.related,
                k=10,
                max_seeds=100,
            )
            for seed in range(4)
        ]
        assert np.mean([r.precision_at_k for r in reports]) >= self.DENSE_PRECISION_AT_10
        assert np.mean([r.recall_at_k for r in reports]) >= self.DENSE_RECALL_AT_10


class TestKGEBackend:
    def test_respects_k(self, kg, kge_backend):
        seed = next(iter(kg.truth.related))
        assert len(kge_backend.related(seed, k=3)) <= 3

    def test_unknown_entity_raises(self, kge_backend):
        from repro.common.errors import IndexError_

        with pytest.raises(IndexError_):
            kge_backend.related("entity:ghost")

    def test_evaluation_runs(self, kg, kge_backend):
        report = evaluate_related(kge_backend, kg.truth.related, k=10, max_seeds=20)
        assert 0.0 <= report.precision_at_k <= 1.0
        assert 0.0 <= report.recall_at_k <= 1.0


class TestEvaluateRelated:
    def test_empty_truth(self, traversal):
        report = evaluate_related(traversal, {}, k=5)
        assert report.num_seeds == 0
        assert report.precision_at_k == 0.0

    def test_max_seeds_limits(self, kg, traversal):
        report = evaluate_related(traversal, kg.truth.related, k=5, max_seeds=3)
        assert report.num_seeds == 3
