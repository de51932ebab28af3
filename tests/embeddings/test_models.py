"""Tests for the shallow embedding models (scores + gradients)."""

import numpy as np
import pytest

from repro.common.errors import EmbeddingError
from repro.embeddings.models import (
    ComplEx,
    DistMult,
    ModelConfig,
    TransE,
    create_model,
)
from repro.embeddings.models import _MODELS as REGISTERED_MODELS

MODELS = [TransE, DistMult, ComplEx]


@pytest.fixture(params=MODELS, ids=[m.name for m in MODELS])
def model(request):
    return request.param(num_entities=20, num_relations=5, config=ModelConfig(dim=8, seed=3))


class TestFactory:
    def test_create_by_name(self):
        for name in sorted(REGISTERED_MODELS):
            model = create_model(name, 10, 3, ModelConfig(dim=4))
            assert model.name == name

    def test_unknown_name(self):
        with pytest.raises(EmbeddingError):
            create_model("rotatoe", 10, 3)

    def test_rejects_empty_vocab(self):
        with pytest.raises(EmbeddingError):
            DistMult(0, 1, ModelConfig(dim=4))

    def test_rejects_bad_dim(self):
        with pytest.raises(EmbeddingError):
            ModelConfig(dim=0)


class TestScoring:
    def test_score_shape(self, model):
        h = np.array([0, 1, 2])
        r = np.array([0, 1, 2])
        t = np.array([3, 4, 5])
        assert model.score(h, r, t).shape == (3,)

    def test_score_triples_matches_score(self, model):
        triples = np.array([[0, 1, 2], [3, 2, 1]])
        direct = model.score(triples[:, 0], triples[:, 1], triples[:, 2])
        assert np.allclose(model.score_triples(triples), direct)

    def test_deterministic_init(self):
        a = DistMult(10, 3, ModelConfig(dim=4, seed=1))
        b = DistMult(10, 3, ModelConfig(dim=4, seed=1))
        assert np.array_equal(a.entity_emb, b.entity_emb)

    def test_transe_perfect_translation_scores_zero(self):
        model = TransE(4, 2, ModelConfig(dim=4, seed=0))
        model.entity_emb[0] = np.array([1.0, 0, 0, 0])
        model.relation_emb[0] = np.array([0, 1.0, 0, 0])
        model.entity_emb[1] = np.array([1.0, 1.0, 0, 0])
        score = model.score(np.array([0]), np.array([0]), np.array([1]))
        assert score[0] == pytest.approx(0.0)

    def test_distmult_symmetric(self):
        model = DistMult(6, 2, ModelConfig(dim=4, seed=2))
        forward = model.score(np.array([0]), np.array([0]), np.array([1]))
        backward = model.score(np.array([1]), np.array([0]), np.array([0]))
        assert forward[0] == pytest.approx(backward[0])

    def test_complex_can_be_antisymmetric(self):
        model = ComplEx(6, 2, ModelConfig(dim=4, seed=2))
        forward = model.score(np.array([0]), np.array([0]), np.array([1]))
        backward = model.score(np.array([1]), np.array([0]), np.array([0]))
        assert forward[0] != pytest.approx(backward[0])

    def test_complex_storage_dim_doubled(self):
        model = ComplEx(6, 2, ModelConfig(dim=4))
        assert model.entity_emb.shape == (6, 8)


class TestGradients:
    """Gradients are checked against finite differences for every model."""

    def test_numeric_gradient_check(self, model):
        h = np.array([1])
        r = np.array([2])
        t = np.array([3])
        dscore = np.array([1.0])
        gh, gr, gt = model.grads(h, r, t, dscore)
        eps = 1e-6

        def check(matrix, row, grad_row):
            numeric = np.zeros_like(grad_row)
            for d in range(matrix.shape[1]):
                original = matrix[row, d]
                matrix[row, d] = original + eps
                up = model.score(h, r, t)[0]
                matrix[row, d] = original - eps
                down = model.score(h, r, t)[0]
                matrix[row, d] = original
                numeric[d] = (up - down) / (2 * eps)
            assert np.allclose(numeric, grad_row, atol=1e-4), (
                f"{model.name}: analytic {grad_row} vs numeric {numeric}"
            )

        check(model.entity_emb, 1, gh[0])
        check(model.relation_emb, 2, gr[0])
        check(model.entity_emb, 3, gt[0])

    def test_dscore_scales_gradients(self, model):
        h, r, t = np.array([0]), np.array([0]), np.array([1])
        g1 = model.grads(h, r, t, np.array([1.0]))
        g2 = model.grads(h, r, t, np.array([2.0]))
        for a, b in zip(g1, g2):
            assert np.allclose(2 * a, b)

    def test_transe_normalize_entities(self):
        model = TransE(5, 2, ModelConfig(dim=4, seed=1))
        model.entity_emb *= 100
        model.normalize_entities()
        norms = np.linalg.norm(model.entity_emb, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    def test_distmult_normalize_is_noop(self):
        model = DistMult(5, 2, ModelConfig(dim=4, seed=1))
        before = model.entity_emb.copy()
        model.normalize_entities()
        assert np.array_equal(before, model.entity_emb)
