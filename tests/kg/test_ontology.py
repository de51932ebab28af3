"""Tests for the ontology (types + predicate schemas)."""

import pytest

from repro.common.errors import OntologyError
from repro.kg.generator import build_ontology
from repro.kg.ontology import Ontology, PredicateSchema
from repro.kg.triple import LiteralType


@pytest.fixture()
def onto() -> Ontology:
    o = Ontology()
    o.add_type("type:thing")
    o.add_type("type:person", "type:thing")
    o.add_type("type:athlete", "type:person")
    o.add_predicate(
        PredicateSchema(
            "predicate:dob", "type:person",
            literal_type=LiteralType.DATE, functional=True, expected=True,
        )
    )
    o.add_predicate(
        PredicateSchema("predicate:knows", "type:person", range_type="type:person")
    )
    return o


class TestTypes:
    def test_hierarchy(self, onto):
        assert onto.parent("type:athlete") == "type:person"
        assert onto.ancestors("type:athlete") == ["type:person", "type:thing"]

    def test_duplicate_type_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_type("type:person")

    def test_unknown_parent_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_type("type:x", "type:nonexistent")

    def test_bad_type_id_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_type("entity:notatype")


class TestPredicates:
    def test_schema_lookup(self, onto):
        schema = onto.schema("predicate:dob")
        assert schema.functional
        assert schema.is_literal

    def test_unknown_predicate_raises(self, onto):
        with pytest.raises(OntologyError):
            onto.schema("predicate:nope")

    def test_schema_needs_exactly_one_range(self):
        with pytest.raises(OntologyError):
            PredicateSchema("predicate:x", "type:thing")
        with pytest.raises(OntologyError):
            PredicateSchema(
                "predicate:x", "type:thing",
                range_type="type:thing", literal_type=LiteralType.STRING,
            )

    def test_expected_predicates_inherit(self, onto):
        # dob is expected on person; athlete inherits the expectation.
        assert "predicate:dob" in onto.expected_predicates("type:athlete")

    def test_duplicate_predicate_rejected(self, onto):
        with pytest.raises(OntologyError):
            onto.add_predicate(
                PredicateSchema("predicate:dob", "type:person",
                                literal_type=LiteralType.DATE)
            )


class TestGeneratorOntology:
    def test_volatile_predicates(self):
        onto = build_ontology()
        assert "predicate:social_media_followers" in onto.volatile_predicates()
        assert "predicate:date_of_birth" not in onto.volatile_predicates()
