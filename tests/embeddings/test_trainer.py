"""Tests for the in-memory contrastive trainer."""

import numpy as np
import pytest

from repro.common.errors import EmbeddingError
from repro.embeddings.dataset import build_dataset
from repro.embeddings.trainer import (
    AdaGrad,
    TrainConfig,
    Trainer,
    train_embeddings,
)
from repro.kg.store import TripleStore
from repro.kg.triple import entity_fact


@pytest.fixture(scope="module")
def small_dataset():
    store = TripleStore()
    rng = np.random.default_rng(0)
    entities = [f"entity:e{i}" for i in range(30)]
    # Two clusters densely connected internally.
    for _ in range(150):
        cluster = rng.integers(0, 2)
        a, b = rng.integers(0, 15, size=2) + cluster * 15
        if a != b:
            store.add(entity_fact(entities[a], "predicate:linked", entities[b]))
    return build_dataset(store)


class TestAdaGrad:
    def test_update_moves_against_gradient(self):
        params = np.ones((4, 2))
        opt = AdaGrad((4, 2), learning_rate=0.5)
        opt.apply(params, np.array([1]), np.array([[1.0, 1.0]]))
        assert np.all(params[1] < 1.0)
        assert np.all(params[0] == 1.0)

    def test_duplicate_rows_accumulate(self):
        params_dup = np.zeros((2, 1))
        opt_dup = AdaGrad((2, 1), learning_rate=1.0)
        opt_dup.apply(params_dup, np.array([0, 0]), np.array([[1.0], [1.0]]))

        params_single = np.zeros((2, 1))
        opt_single = AdaGrad((2, 1), learning_rate=1.0)
        opt_single.apply(params_single, np.array([0]), np.array([[2.0]]))
        assert np.allclose(params_dup, params_single)

    def test_trainable_mask_freezes_other_rows(self):
        params = np.ones((3, 2))
        opt = AdaGrad((3, 2), learning_rate=0.5, trainable=np.array([False, True, False]))
        opt.apply(params, np.array([0, 1, 2, 1]), np.ones((4, 2)))
        assert np.all(params[[0, 2]] == 1.0)
        assert np.all(params[1] < 1.0)
        assert np.all(opt.accumulator[[0, 2]] == 0.0)
        opt.apply(params, np.array([2]), np.ones((1, 2)))  # nothing trainable
        assert np.all(params[2] == 1.0)

    def test_external_accumulator_shared(self):
        acc = np.zeros((2, 2))
        opt = AdaGrad((2, 2), learning_rate=0.1, accumulator=acc)
        opt.apply(np.zeros((2, 2)), np.array([0]), np.array([[1.0, 1.0]]))
        assert acc[0, 0] > 0


class TestTraining:
    def test_loss_decreases(self, small_dataset):
        trainer = Trainer(small_dataset, TrainConfig(model="distmult", dim=8, epochs=10, seed=1))
        trained = trainer.train()
        losses = [epoch.mean_loss for epoch in trained.history]
        assert losses[-1] < losses[0]

    def test_history_length(self, small_dataset):
        trained = train_embeddings(
            small_dataset, TrainConfig(model="transe", dim=8, epochs=3, seed=1)
        )
        assert len(trained.history) == 3
        assert all(epoch.triples_per_second > 0 for epoch in trained.history)

    def test_deterministic(self, small_dataset):
        config = TrainConfig(model="distmult", dim=8, epochs=3, seed=9)
        a = Trainer(small_dataset, config).train()
        b = Trainer(small_dataset, config).train()
        assert np.array_equal(a.model.entity_emb, b.model.entity_emb)

    def test_positive_scores_above_negative_after_training(self, small_dataset):
        trained = train_embeddings(
            small_dataset, TrainConfig(model="distmult", dim=16, epochs=25, seed=2)
        )
        positives = small_dataset.triples[:50]
        rng = np.random.default_rng(3)
        negatives = positives.copy()
        negatives[:, 2] = rng.integers(0, small_dataset.num_entities, size=len(negatives))
        pos = trained.model.score_triples(positives).mean()
        neg = trained.model.score_triples(negatives).mean()
        assert pos > neg

    def test_all_models_train(self, small_dataset):
        for name in ("transe", "distmult", "complex"):
            trained = train_embeddings(
                small_dataset, TrainConfig(model=name, dim=4, epochs=2, seed=1)
            )
            assert trained.model.name == name

    def test_rejects_bad_config(self):
        with pytest.raises(EmbeddingError):
            TrainConfig(epochs=0)
        with pytest.raises(EmbeddingError):
            TrainConfig(learning_rate=-1)


class TestTrainedEmbeddings:
    def test_entity_vector(self, small_dataset):
        trained = train_embeddings(
            small_dataset, TrainConfig(model="distmult", dim=8, epochs=1, seed=1)
        )
        entity = small_dataset.entities[0]
        vector = trained.entity_vector(entity)
        assert vector.shape == (8,)
        assert trained.has_entity(entity)
        assert not trained.has_entity("entity:nope")

    def test_entity_vector_unknown_raises(self, small_dataset):
        trained = train_embeddings(
            small_dataset, TrainConfig(model="distmult", dim=8, epochs=1, seed=1)
        )
        with pytest.raises(EmbeddingError):
            trained.entity_vector("entity:nope")

    def test_score_fact_symbolic(self, small_dataset):
        trained = train_embeddings(
            small_dataset, TrainConfig(model="distmult", dim=8, epochs=1, seed=1)
        )
        h, r, t = small_dataset.triples[0]
        subject, predicate, obj = small_dataset.decode(int(h), int(r), int(t))
        assert trained.score_fact(subject, predicate, obj) == pytest.approx(
            float(trained.model.score_triples(np.array([[h, r, t]]))[0])
        )

    def test_all_entity_vectors_aligned(self, small_dataset):
        trained = train_embeddings(
            small_dataset, TrainConfig(model="distmult", dim=8, epochs=1, seed=1)
        )
        keys, matrix = trained.all_entity_vectors()
        assert keys == small_dataset.entities
        assert matrix.shape[0] == len(keys)
