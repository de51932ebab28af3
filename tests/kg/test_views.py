"""Tests for materialized views."""

import pytest

from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import LiteralType, entity_fact, literal_fact
from repro.kg.views import (
    ViewDefinition,
    embedding_training_view,
    materialize,
    static_knowledge_asset_view,
)


@pytest.fixture()
def base() -> TripleStore:
    store = TripleStore()
    for local, popularity, types in [
        ("a", 0.9, ("type:person",)),
        ("b", 0.5, ("type:person",)),
        ("c", 0.1, ("type:city",)),
    ]:
        store.upsert_entity(
            EntityRecord(entity=f"entity:{local}", name=local.upper(),
                         popularity=popularity, types=types)
        )
    store.add(entity_fact("entity:a", "predicate:knows", "entity:b"))
    store.add(entity_fact("entity:a", "predicate:knows", "entity:c"))
    store.add(entity_fact("entity:b", "predicate:rare", "entity:c", confidence=0.2))
    store.add(literal_fact("entity:a", "predicate:height", 180, LiteralType.NUMBER))
    store.add(literal_fact("entity:a", "predicate:lib", "L1", LiteralType.IDENTIFIER))
    store.add(literal_fact("entity:a", "predicate:bio", "text", LiteralType.STRING))
    return store


class TestClauses:
    def test_drop_numeric(self, base):
        view = materialize(ViewDefinition(name="v", drop_numeric=True), base)
        assert all(fact.literal_type is not LiteralType.NUMBER for fact in view.store.scan())
        assert view.facts_kept == view.facts_in - 1

    def test_drop_identifiers(self, base):
        view = materialize(ViewDefinition(name="v", drop_identifiers=True), base)
        predicates = {fact.predicate for fact in view.store.scan()}
        assert "predicate:lib" not in predicates

    def test_drop_all_literals(self, base):
        view = materialize(ViewDefinition(name="v", drop_literals=True), base)
        assert all(not fact.is_literal for fact in view.store.scan())

    def test_allowlist(self, base):
        view = materialize(
            ViewDefinition(name="v", predicate_allowlist=frozenset({"predicate:knows"})),
            base,
        )
        assert {fact.predicate for fact in view.store.scan()} == {"predicate:knows"}

    def test_denylist(self, base):
        view = materialize(
            ViewDefinition(name="v", predicate_denylist=frozenset({"predicate:knows"})),
            base,
        )
        assert "predicate:knows" not in {fact.predicate for fact in view.store.scan()}

    def test_min_predicate_frequency(self, base):
        view = materialize(ViewDefinition(name="v", min_predicate_frequency=2), base)
        assert "predicate:rare" not in {fact.predicate for fact in view.store.scan()}
        assert "predicate:knows" in {fact.predicate for fact in view.store.scan()}

    def test_min_confidence(self, base):
        view = materialize(ViewDefinition(name="v", min_confidence=0.5), base)
        assert all(fact.confidence >= 0.5 for fact in view.store.scan())

    def test_entity_types_filter(self, base):
        view = materialize(
            ViewDefinition(name="v", entity_types=frozenset({"type:person"})), base
        )
        # a-knows-c dropped: c is a city.
        assert ("entity:a", "predicate:knows", "entity:c") not in view.store

    def test_top_k_popularity(self, base):
        view = materialize(
            ViewDefinition(name="v", top_k_entities_by_popularity=2), base
        )
        kept_entities = set(view.store.entity_ids())
        assert "entity:c" not in kept_entities

    def test_entity_descriptors_copied(self, base):
        view = materialize(ViewDefinition(name="v", drop_literals=True), base)
        assert view.store.entity("entity:a").popularity == 0.9

    def test_selectivity(self, base):
        view = materialize(ViewDefinition(name="v"), base)
        assert view.selectivity == 1.0


class TestStandardViews:
    def test_embedding_training_view(self, base):
        definition = embedding_training_view(min_predicate_frequency=1)
        view = materialize(definition, base)
        predicates = {fact.predicate for fact in view.store.scan()}
        assert "predicate:height" not in predicates  # numeric dropped
        assert "predicate:lib" not in predicates  # identifier dropped
        assert "predicate:bio" in predicates  # plain strings kept

    def test_static_asset_view(self, base):
        view = materialize(static_knowledge_asset_view(top_k=1), base)
        assert set(view.store.entity_ids()) <= {"entity:a", "entity:b"}
