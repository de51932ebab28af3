"""Tests for the end-to-end embedding pipeline + registry + inference."""

import pytest

from repro.common.errors import EmbeddingError, ModelRegistryError
from repro.embeddings.inference import BatchInference
from repro.embeddings.pipeline import EmbeddingPipelineConfig, run_embedding_pipeline
from repro.embeddings.registry import ModelRegistry
from repro.embeddings.trainer import TrainConfig
from repro.kg.views import embedding_training_view


class TestPipeline:
    def test_view_filtering_applied(self, kg):
        config = EmbeddingPipelineConfig(
            train=TrainConfig(model="distmult", dim=8, epochs=2, seed=1),
            view=embedding_training_view(min_predicate_frequency=3),
            eval_max_queries=10,
        )
        result = run_embedding_pipeline(kg.store, config)
        assert result.view is not None
        assert result.view.facts_kept < result.view.facts_in
        # numeric predicates must not be in the vocabulary
        assert "predicate:height_cm" not in result.dataset.relation_index

    def test_no_view_trains_on_entity_edges(self, kg):
        config = EmbeddingPipelineConfig(
            train=TrainConfig(model="distmult", dim=8, epochs=1, seed=1),
            view=None,
            eval_max_queries=5,
        )
        result = run_embedding_pipeline(kg.store, config)
        assert result.view is None
        assert len(result.dataset) > 0

    def test_registry_receives_model(self, kg):
        registry = ModelRegistry()
        config = EmbeddingPipelineConfig(
            train=TrainConfig(model="distmult", dim=8, epochs=1, seed=1),
            view=embedding_training_view(min_predicate_frequency=3),
            eval_max_queries=5,
            registry_name="test-model",
        )
        result = run_embedding_pipeline(kg.store, config, registry=registry)
        assert result.registered_version == 1
        record = registry.latest("test-model")
        assert record.metrics["mrr"] == result.evaluation.mrr

    def test_disk_trainer_requires_workdir(self, kg):
        config = EmbeddingPipelineConfig(
            train=TrainConfig(model="distmult", dim=8, epochs=1, seed=1),
            use_disk_trainer=True,
        )
        with pytest.raises(ValueError):
            run_embedding_pipeline(kg.store, config)

    def test_disk_pipeline_produces_stats(self, kg, tmp_path):
        config = EmbeddingPipelineConfig(
            train=TrainConfig(model="distmult", dim=8, epochs=1, seed=1),
            view=embedding_training_view(min_predicate_frequency=3),
            use_disk_trainer=True,
            num_partitions=3,
            buffer_capacity=2,
            eval_max_queries=5,
        )
        result = run_embedding_pipeline(kg.store, config, workdir=tmp_path)
        assert result.disk_stats is not None
        assert result.disk_stats.peak_resident_buckets <= 2


class TestRegistry:
    def test_versions_increment(self, trained):
        registry = ModelRegistry()
        registry.register("m", trained.trained)
        registry.register("m", trained.trained)
        assert registry.versions("m") == [1, 2]
        assert registry.latest("m").version == 2

    def test_get_specific_version(self, trained):
        registry = ModelRegistry()
        first = registry.register("m", trained.trained, metrics={"mrr": 0.1})
        registry.register("m", trained.trained, metrics={"mrr": 0.2})
        assert registry.get("m", 1) is first

    def test_unknown_name_raises(self):
        with pytest.raises(ModelRegistryError):
            ModelRegistry().latest("ghost")

    def test_unknown_version_raises(self, trained):
        registry = ModelRegistry()
        registry.register("m", trained.trained)
        with pytest.raises(ModelRegistryError):
            registry.get("m", 99)

    def test_names(self, trained):
        registry = ModelRegistry()
        registry.register("b", trained.trained)
        registry.register("a", trained.trained)
        assert registry.names() == ["a", "b"]


class TestBatchInference:
    def test_score_triples_skips_unknown(self, trained):
        inference = BatchInference(trained.trained)
        dataset = trained.dataset
        known_triple = dataset.decode(*map(int, dataset.triples[0]))
        scored = inference.score_triples(
            [known_triple, ("entity:ghost", "predicate:p", "entity:ghost2")]
        )
        assert len(scored) == 1

    def test_score_triples_strict_raises(self, trained):
        inference = BatchInference(trained.trained)
        with pytest.raises(EmbeddingError):
            inference.score_triples(
                [("entity:ghost", "predicate:p", "entity:ghost2")],
                skip_unknown=False,
            )

    def test_batching_equivalence(self, trained):
        dataset = trained.dataset
        candidates = [
            dataset.decode(*map(int, row)) for row in dataset.triples[:20]
        ]
        small = BatchInference(trained.trained, batch_size=3).score_triples(candidates)
        large = BatchInference(trained.trained, batch_size=1000).score_triples(candidates)
        assert [s.score for s in small] == pytest.approx([s.score for s in large])

    def test_rejects_bad_batch_size(self, trained):
        with pytest.raises(EmbeddingError):
            BatchInference(trained.trained, batch_size=0)
