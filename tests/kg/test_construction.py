"""Tests for batch construction."""

import pytest

from repro.common.errors import StoreError
from repro.kg.construction import BatchIngestor, KnowledgeSource
from repro.kg.generator import build_ontology
from repro.kg.store import TripleStore
from repro.kg.triple import LiteralType, entity_fact, literal_fact

DOB = "predicate:date_of_birth"


def _dob(subject, value, confidence=1.0):
    return literal_fact(subject, DOB, value, LiteralType.DATE, confidence=confidence)


class TestBatch:
    def test_basic_ingest(self):
        store = TripleStore()
        source = KnowledgeSource(
            name="feed",
            trust=1.0,
            facts=[entity_fact("entity:a", "predicate:occupation", "entity:o")],
        )
        report = BatchIngestor(store, build_ontology()).ingest([source])
        assert report.facts_applied == 1
        assert len(store) == 1

    def test_source_provenance_stamped(self):
        store = TripleStore()
        source = KnowledgeSource(
            name="wiki", trust=1.0,
            facts=[entity_fact("entity:a", "predicate:occupation", "entity:o")],
        )
        BatchIngestor(store, build_ontology()).ingest([source])
        fact = store.get("entity:a", "predicate:occupation", "entity:o")
        assert "source:wiki" in fact.sources

    def test_functional_conflict_higher_trust_wins(self):
        store = TripleStore()
        low = KnowledgeSource(name="blog", trust=0.3, facts=[_dob("entity:a", "1990-01-01")])
        high = KnowledgeSource(name="registry", trust=0.95, facts=[_dob("entity:a", "1991-02-02")])
        report = BatchIngestor(store, build_ontology()).ingest([low, high])
        values = store.objects("entity:a", DOB)
        assert values == ["1991-02-02"]
        assert report.conflicts_resolved == 1

    def test_functional_conflict_lower_trust_dropped(self):
        store = TripleStore()
        high = KnowledgeSource(name="registry", trust=0.95, facts=[_dob("entity:a", "1991-02-02")])
        low = KnowledgeSource(name="blog", trust=0.3, facts=[_dob("entity:a", "1990-01-01")])
        # Sorted by trust internally, so the high-trust fact lands last anyway;
        # ingest them in one call and check the winner.
        BatchIngestor(store, build_ontology()).ingest([high, low])
        assert store.objects("entity:a", DOB) == ["1991-02-02"]

    def test_multivalued_predicates_accumulate(self):
        store = TripleStore()
        source = KnowledgeSource(
            name="feed", trust=1.0,
            facts=[
                entity_fact("entity:a", "predicate:occupation", "entity:o1"),
                entity_fact("entity:a", "predicate:occupation", "entity:o2"),
            ],
        )
        BatchIngestor(store, build_ontology()).ingest([source])
        assert len(store.objects("entity:a", "predicate:occupation")) == 2

    def test_schema_rejection(self):
        store = TripleStore()
        source = KnowledgeSource(
            name="feed", trust=1.0,
            facts=[entity_fact("entity:a", "predicate:not_in_schema", "entity:b")],
        )
        report = BatchIngestor(store, build_ontology()).ingest([source])
        assert report.schema_rejections == 1
        assert len(store) == 0

    def test_kind_mismatch_rejected(self):
        store = TripleStore()
        # date_of_birth must be a literal; an entity-valued version is rejected.
        source = KnowledgeSource(
            name="feed", trust=1.0,
            facts=[entity_fact("entity:a", DOB, "entity:b")],
        )
        report = BatchIngestor(store, build_ontology()).ingest([source])
        assert report.schema_rejections == 1

    def test_no_ontology_accepts_everything(self):
        store = TripleStore()
        source = KnowledgeSource(
            name="feed", trust=1.0,
            facts=[entity_fact("entity:a", "predicate:whatever", "entity:b")],
        )
        report = BatchIngestor(store, None).ingest([source])
        assert report.facts_applied == 1

    def test_bad_trust_rejected(self):
        with pytest.raises(StoreError):
            KnowledgeSource(name="x", trust=1.5)

