"""Tests for namespaced identifiers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import ids
from repro.common.errors import IdentifierError


class TestMakeAndSplit:
    def test_roundtrip(self):
        identifier = ids.make_id("entity", "Q42")
        assert identifier == "entity:Q42"
        assert ids.split_id(identifier) == ("entity", "Q42")

    def test_unknown_namespace_rejected(self):
        with pytest.raises(IdentifierError):
            ids.make_id("planet", "earth")

    def test_malformed_local_rejected(self):
        with pytest.raises(IdentifierError):
            ids.make_id("entity", "has space")

    def test_empty_local_rejected(self):
        with pytest.raises(IdentifierError):
            ids.make_id("entity", "")

    def test_split_requires_namespace(self):
        with pytest.raises(IdentifierError):
            ids.split_id("no-colon-here")

    def test_split_rejects_unknown_namespace(self):
        with pytest.raises(IdentifierError):
            ids.split_id("bogus:thing")

    def test_hierarchical_locals_allowed(self):
        assert ids.doc_id("web/000123") == "doc:web/000123"


class TestPredicates:
    def test_is_entity(self):
        assert ids.is_entity("entity:Q1")
        assert not ids.is_entity("predicate:p")

    def test_is_predicate(self):
        assert ids.is_predicate("predicate:occupation")
        assert not ids.is_predicate("entity:Q1")

    def test_is_type_and_doc(self):
        assert ids.is_type("type:person")
        assert not ids.is_type("entity:x")

    def test_shorthands(self):
        assert ids.entity_id("x") == "entity:x"
        assert ids.predicate_id("p") == "predicate:p"
        assert ids.type_id("t") == "type:t"
        assert ids.device_id("d") == "device:d"

    def test_namespace_and_local_accessors(self):
        assert ids.local_of("entity:abc") == "abc"


@given(local=st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_\-./+]{0,20}", fullmatch=True))
def test_property_roundtrip_any_valid_local(local):
    identifier = ids.make_id("entity", local)
    namespace, back = ids.split_id(identifier)
    assert namespace == "entity"
    assert back == local
