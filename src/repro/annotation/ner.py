"""Coarse named-entity typing of mentions.

The annotation pipeline attaches an entity-type label to each link (§3.1:
pages are annotated "including the corresponding entity types").  The
typer maps the linked entity's ontology types onto coarse NER classes.
"""

from __future__ import annotations

from repro.kg.store import TripleStore

PERSON = "PERSON"
ORGANIZATION = "ORG"
PLACE = "PLACE"
WORK = "WORK"
OTHER = "OTHER"

_TYPE_TO_LABEL = [
    ("type:person", PERSON),
    ("type:athlete", PERSON),
    ("type:organization", ORGANIZATION),
    ("type:sports_team", ORGANIZATION),
    ("type:university", ORGANIZATION),
    ("type:record_label", ORGANIZATION),
    ("type:place", PLACE),
    ("type:city", PLACE),
    ("type:country", PLACE),
    ("type:creative_work", WORK),
    ("type:film", WORK),
    ("type:album", WORK),
    ("type:tv_show", WORK),
]


class EntityTyper:
    """Resolve coarse NER labels from KG types."""

    def __init__(self, store: TripleStore) -> None:
        self.store = store

    def label_for_entity(self, entity: str) -> str:
        """Coarse label of a known entity (OTHER when untyped/unknown)."""
        if not self.store.has_entity(entity):
            return OTHER
        types = set(self.store.entity(entity).types)
        for type_id, label in _TYPE_TO_LABEL:
            if type_id in types:
                return label
        return OTHER
