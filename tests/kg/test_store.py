"""Tests for the triple store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StoreError
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import LiteralType, entity_fact, literal_fact


@pytest.fixture()
def store() -> TripleStore:
    s = TripleStore()
    s.upsert_entity(EntityRecord(entity="entity:a", name="A", popularity=0.9))
    s.upsert_entity(EntityRecord(entity="entity:b", name="B", popularity=0.1))
    s.add(entity_fact("entity:a", "predicate:knows", "entity:b"))
    s.add(entity_fact("entity:b", "predicate:knows", "entity:a"))
    s.add(literal_fact("entity:a", "predicate:height", 180, LiteralType.NUMBER))
    return s


class TestEntities:
    def test_upsert_and_get(self, store):
        assert store.entity("entity:a").name == "A"

    def test_unknown_entity_raises(self, store):
        with pytest.raises(StoreError):
            store.entity("entity:zzz")

    def test_bad_entity_id_rejected(self, store):
        with pytest.raises(StoreError):
            store.upsert_entity(EntityRecord(entity="doc:x", name="X"))

    def test_entity_ids(self, store):
        assert set(store.entity_ids()) == {"entity:a", "entity:b"}


class TestFacts:
    def test_add_and_get(self, store):
        assert store.get("entity:a", "predicate:knows", "entity:b") is not None

    def test_len(self, store):
        assert len(store) == 3

    def test_contains(self, store):
        assert ("entity:a", "predicate:knows", "entity:b") in store

    def test_remove(self, store):
        assert store.remove("entity:a", "predicate:knows", "entity:b")
        assert not store.remove("entity:a", "predicate:knows", "entity:b")
        assert len(store) == 2

    def test_upsert_merges_metadata(self, store):
        first = entity_fact(
            "entity:a", "predicate:knows", "entity:b",
            confidence=0.4, sources=("source:x",), updated_at=1.0,
        )
        second = entity_fact(
            "entity:a", "predicate:knows", "entity:b",
            confidence=0.8, sources=("source:y",), updated_at=2.0,
        )
        store.add(first)
        merged = store.add(second)
        assert merged.confidence == 1.0  # fixture fact had confidence 1.0
        assert "source:x" in merged.sources and "source:y" in merged.sources
        assert merged.updated_at == 2.0
        assert len(store) == 3  # no duplicate edge

    def test_version_advances(self, store):
        before = store.version
        store.add(entity_fact("entity:b", "predicate:likes", "entity:a"))
        assert store.version > before


class TestScans:
    def test_scan_full_wildcard(self, store):
        assert len(list(store.scan())) == 3

    def test_scan_by_subject(self, store):
        facts = list(store.scan(subject="entity:a"))
        assert len(facts) == 2

    def test_scan_by_predicate(self, store):
        facts = list(store.scan(predicate="predicate:knows"))
        assert len(facts) == 2

    def test_scan_by_object(self, store):
        facts = list(store.scan(obj="entity:b"))
        assert {fact.subject for fact in facts} == {"entity:a"}

    def test_scan_exact(self, store):
        facts = list(store.scan("entity:a", "predicate:knows", "entity:b"))
        assert len(facts) == 1

    def test_scan_subject_predicate(self, store):
        facts = list(store.scan(subject="entity:a", predicate="predicate:height"))
        assert facts[0].obj == "180"

    def test_objects_and_subjects(self, store):
        assert store.objects("entity:a", "predicate:knows") == ["entity:b"]
        assert store.subjects("predicate:knows", "entity:a") == ["entity:b"]

    def test_predicate_counts(self, store):
        counts = store.predicate_counts()
        assert counts["predicate:knows"] == 2
        assert counts["predicate:height"] == 1

    def test_neighbors_undirected(self, store):
        assert store.neighbors("entity:a") == {"entity:b"}
        assert store.neighbors("entity:b") == {"entity:a"}

    def test_stats(self, store):
        stats = store.stats()
        assert stats.num_entities == 2
        assert stats.num_facts == 3
        assert stats.num_literal_facts == 1


class TestIndexHygiene:
    def test_remove_prunes_empty_index_entries(self):
        store = TripleStore()
        store.add(entity_fact("entity:a", "predicate:p", "entity:b"))
        store.remove("entity:a", "predicate:p", "entity:b")
        assert "entity:a" not in store._spo
        assert "predicate:p" not in store._pos
        assert "entity:b" not in store._osp
        assert store.predicates() == []

    def test_remove_keeps_sibling_entries(self):
        store = TripleStore()
        store.add(entity_fact("entity:a", "predicate:p", "entity:b"))
        store.add(entity_fact("entity:a", "predicate:p", "entity:c"))
        store.remove("entity:a", "predicate:p", "entity:b")
        assert store.objects("entity:a", "predicate:p") == ["entity:c"]
        assert store.predicate_counts() == {"predicate:p": 1}

    def test_churn_does_not_accumulate_empties(self):
        store = TripleStore()
        for i in range(50):
            store.add(entity_fact("entity:a", f"predicate:p{i}", "entity:b"))
            store.remove("entity:a", f"predicate:p{i}", "entity:b")
        assert len(store._spo) == 0 and len(store._pos) == 0 and len(store._osp) == 0

    def test_predicates_of(self):
        store = TripleStore()
        store.add(entity_fact("entity:a", "predicate:p", "entity:b"))
        store.add(literal_fact("entity:a", "predicate:h", 1, LiteralType.NUMBER))
        assert store.predicates_of("entity:a") == {"predicate:p", "predicate:h"}
        assert store.predicates_of("entity:zzz") == set()


class TestAddAllBatching:
    def test_add_all_bumps_version_once(self):
        store = TripleStore()
        before = store.version
        added = store.add_all(
            entity_fact("entity:a", "predicate:p", f"entity:b{i}") for i in range(10)
        )
        assert added == 10
        assert store.version == before + 1

    def test_empty_add_all_keeps_version(self):
        store = TripleStore()
        before = store.version
        assert store.add_all([]) == 0
        assert store.version == before

    def test_partial_batch_still_bumps_version(self):
        """Facts upserted before a mid-batch error must invalidate caches."""
        store = TripleStore()
        before = store.version

        def exploding():
            yield entity_fact("entity:a", "predicate:p", "entity:b")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            store.add_all(exploding())
        assert ("entity:a", "predicate:p", "entity:b") in store
        assert store.version > before


class TestRemoveConsistency:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]),
                st.sampled_from(["entity:x", "entity:y", "entity:z"]),
                st.sampled_from(["entity:x", "entity:y", "entity:z"]),
            ),
            max_size=30,
        )
    )
    def test_property_indexes_stay_consistent(self, ops):
        """After arbitrary add/remove, all three indexes agree with a model set."""
        store = TripleStore()
        model: set[tuple[str, str, str]] = set()
        for op, subj, obj in ops:
            if op == "add":
                store.add(entity_fact(subj, "predicate:p", obj))
                model.add((subj, "predicate:p", obj))
            else:
                store.remove(subj, "predicate:p", obj)
                model.discard((subj, "predicate:p", obj))
        assert {fact.key for fact in store.scan()} == model
        for subj, pred, obj in model:
            assert obj in store.objects(subj, pred)
            assert subj in store.subjects(pred, obj)
        assert len(store) == len(model)
