"""Tests for the Fact data model."""

import pytest

from repro.common.errors import StoreError
from repro.kg.triple import Fact, LiteralType, ObjectKind, entity_fact, literal_fact


class TestConstruction:
    def test_entity_fact(self):
        fact = entity_fact("entity:a", "predicate:p", "entity:b")
        assert fact.obj_kind is ObjectKind.ENTITY
        assert not fact.is_literal

    def test_literal_fact_number(self):
        fact = literal_fact("entity:a", "predicate:h", 180, LiteralType.NUMBER)
        assert fact.is_literal
        assert fact.literal_type is LiteralType.NUMBER
        assert fact.obj == "180"

    def test_literal_fact_date(self):
        fact = literal_fact("entity:a", "predicate:dob", "1979-07-23", LiteralType.DATE)
        assert fact.literal_type is LiteralType.DATE

    def test_rejects_non_entity_subject(self):
        with pytest.raises(StoreError):
            entity_fact("doc:web/1", "predicate:p", "entity:b")

    def test_rejects_non_predicate(self):
        with pytest.raises(StoreError):
            entity_fact("entity:a", "entity:p", "entity:b")

    def test_rejects_literal_object_in_entity_fact(self):
        with pytest.raises(StoreError):
            entity_fact("entity:a", "predicate:p", "just a string")

    def test_entity_fact_must_not_have_literal_type(self):
        with pytest.raises(StoreError):
            Fact(
                subject="entity:a",
                predicate="predicate:p",
                obj="entity:b",
                obj_kind=ObjectKind.ENTITY,
                literal_type=LiteralType.STRING,
            )

    def test_literal_fact_requires_literal_type(self):
        with pytest.raises(StoreError):
            Fact(
                subject="entity:a",
                predicate="predicate:p",
                obj="x",
                obj_kind=ObjectKind.LITERAL,
            )

    def test_rejects_out_of_range_confidence(self):
        with pytest.raises(StoreError):
            entity_fact("entity:a", "predicate:p", "entity:b", confidence=1.5)


class TestBehaviour:
    def test_key_ignores_metadata(self):
        a = entity_fact("entity:a", "predicate:p", "entity:b", confidence=0.5)
        b = entity_fact("entity:a", "predicate:p", "entity:b", confidence=0.9)
        assert a.key == b.key

    def test_with_metadata(self):
        fact = entity_fact("entity:a", "predicate:p", "entity:b")
        updated = fact.with_metadata(confidence=0.7, sources=("source:x",), updated_at=99.0)
        assert updated.confidence == 0.7
        assert updated.sources == ("source:x",)
        assert updated.updated_at == 99.0
        assert fact.confidence == 1.0  # original untouched (frozen)

    def test_hashable(self):
        fact = entity_fact("entity:a", "predicate:p", "entity:b")
        assert fact in {fact}

    def test_dict_roundtrip(self):
        fact = literal_fact(
            "entity:a", "predicate:dob", "1990-01-02", LiteralType.DATE,
            confidence=0.8, sources=("source:s",), updated_at=5.0,
        )
        assert Fact.from_dict(fact.to_dict()) == fact

    def test_entity_dict_roundtrip(self):
        fact = entity_fact("entity:a", "predicate:p", "entity:b")
        assert Fact.from_dict(fact.to_dict()) == fact
