"""Tests for the end-to-end platform facade."""

import pytest

from repro.common.errors import ReproError
from repro.core import KnowledgePlatform
from repro.embeddings.trainer import TrainConfig


@pytest.fixture(scope="module")
def platform(kg):
    p = KnowledgePlatform(kg.store, kg.ontology, now=kg.now)
    p.train_embeddings(TrainConfig(model="distmult", dim=16, epochs=6, seed=2))
    return p


class TestLifecycle:
    def test_embeddings_required_before_services(self, kg):
        fresh = KnowledgePlatform(kg.store, kg.ontology, now=kg.now)
        with pytest.raises(ReproError):
            _ = fresh.embeddings
        with pytest.raises(ReproError):
            fresh.embedding_service()

    def test_train_registers_model(self, platform):
        record = platform.registry.latest("kg-embeddings")
        assert record.version >= 1
        assert "mrr" in record.metrics

    def test_from_synthetic(self):
        platform, kg = KnowledgePlatform.from_synthetic(scale=0.2, seed=3)
        assert len(platform.store) == len(kg.store)

    def test_retrain_bumps_version(self, kg):
        p = KnowledgePlatform(kg.store, kg.ontology, now=kg.now)
        p.train_embeddings(TrainConfig(model="distmult", dim=8, epochs=1, seed=1))
        p.train_embeddings(TrainConfig(model="distmult", dim=8, epochs=1, seed=2))
        assert p.registry.latest("kg-embeddings").version == 2


class TestServices:
    def test_embedding_service_knn(self, platform):
        service = platform.embedding_service()
        entity = platform.embeddings.dataset.entities[0]
        assert service.knn(entity, k=3)

    def test_fact_ranker(self, kg, platform):
        person = next(
            p for p, order in kg.truth.occupation_order.items() if len(order) >= 2
        )
        ranked = platform.fact_ranker().rank(person, "predicate:occupation")
        assert ranked

    def test_fact_verifier_cached(self, platform):
        first = platform.fact_verifier()
        second = platform.fact_verifier()
        assert first is second
        assert first.is_calibrated

    def test_related_entities_strategies(self, kg, platform):
        seed_entity = next(iter(kg.truth.related))
        for strategy in ("traversal", "kge"):
            backend = platform.related_entities(strategy)
            assert backend.related(seed_entity, k=3) is not None
        with pytest.raises(ReproError):
            platform.related_entities("quantum")

    def test_annotator_tiers_cached(self, platform):
        assert platform.annotator("full") is platform.annotator("full")
        assert platform.annotator("lite") is not platform.annotator("full")


class TestWebAndODKE:
    def test_link_web(self, platform, corpus):
        annotator, report = platform.link_web(corpus)
        assert report.docs_processed == len(corpus)
        assert any(doc.links for doc in annotator.store.documents.values())

    def test_enrich_from_web_with_gaps(self, kg, corpus, search_engine):
        from repro.kg.generator import hold_out_facts

        deployed, held_out = hold_out_facts(kg, fraction=0.3, seed=21)
        platform = KnowledgePlatform(deployed, kg.ontology, now=kg.now)
        platform.train_embeddings(
            TrainConfig(model="distmult", dim=8, epochs=2, seed=1)
        )
        before = len(deployed)
        report = platform.enrich_from_web(search_engine, max_targets=25)
        assert report.targets == 25
        if report.fusion and report.fusion.written:
            assert len(deployed) > before
