"""schema.org-style structured payloads embedded in web pages.

§4: "simple rule-based models can be used to extract key-value pairs from
webpages embedded with structured data that conform to schema.org types".
Profile pages carry a JSON-LD-like dict built from KG facts; the rule-based
ODKE extractor parses these payloads back out.  A noise knob lets the
corpus plant wrong values so corroboration has something to reject.
"""

from __future__ import annotations

from typing import Any

from repro.common import ids
from repro.kg.store import TripleStore

# KG predicate (local name) -> schema.org property.
PREDICATE_TO_SCHEMA = {
    "date_of_birth": "birthDate",
    "place_of_birth": "birthPlace",
    "spouse": "spouse",
    "occupation": "jobTitle",
    "member_of_sports_team": "memberOf",
    "employer": "worksFor",
    "height_cm": "height",
}

SCHEMA_TO_PREDICATE = {v: k for k, v in PREDICATE_TO_SCHEMA.items()}

_TYPE_TO_SCHEMA = {
    "type:person": "Person",
    "type:film": "Movie",
    "type:album": "MusicAlbum",
    "type:sports_team": "SportsTeam",
    "type:city": "City",
    "type:university": "CollegeOrUniversity",
}


def schema_type_of(types: tuple[str, ...]) -> str:
    """Best schema.org @type for a KG type tuple (default ``Thing``)."""
    for type_id in types:
        if type_id in _TYPE_TO_SCHEMA:
            return _TYPE_TO_SCHEMA[type_id]
    return "Thing"


def build_person_payload(
    store: TripleStore,
    entity: str,
    include_predicates: list[str] | None = None,
) -> dict[str, Any]:
    """JSON-LD-like payload for an entity from its KG facts.

    Entity-valued properties are rendered as the target's *name* (web pages
    don't know KG ids); the extractor must link them back.
    """
    record = store.entity(entity)
    payload: dict[str, Any] = {
        "@type": schema_type_of(record.types),
        "name": record.name,
    }
    wanted = include_predicates or list(PREDICATE_TO_SCHEMA)
    for local in wanted:
        predicate = ids.predicate_id(local)
        values = []
        for fact in store.scan(subject=entity, predicate=predicate):
            if fact.is_literal:
                values.append(fact.obj)
            elif store.has_entity(fact.obj):
                values.append(store.entity(fact.obj).name)
        if not values:
            continue
        schema_property = PREDICATE_TO_SCHEMA[local]
        payload[schema_property] = values[0] if len(values) == 1 else sorted(values)
    return payload
