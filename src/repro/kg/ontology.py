"""Ontology: the type hierarchy and predicate schemas of the KG.

Saga integrates data under a unified ontology.  We model:

* a **type hierarchy** (``type:basketball_player`` is-a ``type:athlete``
  is-a ``type:person``),
* **predicate schemas** — domain/range constraints, whether the predicate is
  functional (at most one value, e.g. date of birth) or multi-valued (e.g.
  occupation), whether it is *volatile* (value changes over time — net
  worth, marital status — driving ODKE staleness checks).

The ontology also records, per type, which predicates are *expected*; KG
profiling (§4) uses expectations to find coverage gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import ids
from repro.common.errors import OntologyError
from repro.kg.triple import LiteralType


@dataclass(frozen=True)
class PredicateSchema:
    """Schema of one predicate.

    ``range_type`` is an entity type id for entity-valued predicates and
    ``None`` for literal-valued ones (whose datatype is ``literal_type``).
    """

    predicate: str
    domain: str
    range_type: str | None = None
    literal_type: LiteralType | None = None
    functional: bool = False
    volatile: bool = False
    expected: bool = False

    def __post_init__(self) -> None:
        if not ids.is_predicate(self.predicate):
            raise OntologyError(f"not a predicate id: {self.predicate!r}")
        if not ids.is_type(self.domain):
            raise OntologyError(f"domain must be a type id: {self.domain!r}")
        if (self.range_type is None) == (self.literal_type is None):
            raise OntologyError(
                f"predicate {self.predicate} must have exactly one of "
                "range_type / literal_type"
            )
        if self.range_type is not None and not ids.is_type(self.range_type):
            raise OntologyError(f"range must be a type id: {self.range_type!r}")

    @property
    def is_literal(self) -> bool:
        """True when the predicate's range is a literal datatype."""
        return self.literal_type is not None


class Ontology:
    """Mutable registry of types and predicate schemas."""

    def __init__(self) -> None:
        self._parents: dict[str, str | None] = {}
        self._schemas: dict[str, PredicateSchema] = {}

    # -- types ------------------------------------------------------------

    def add_type(self, type_id: str, parent: str | None = None) -> None:
        """Register ``type_id`` with an optional parent type."""
        if not ids.is_type(type_id):
            raise OntologyError(f"not a type id: {type_id!r}")
        if parent is not None and parent not in self._parents:
            raise OntologyError(f"parent type {parent!r} not registered")
        if type_id in self._parents:
            raise OntologyError(f"type {type_id!r} already registered")
        self._parents[type_id] = parent

    def has_type(self, type_id: str) -> bool:
        """True if ``type_id`` is registered."""
        return type_id in self._parents

    def types(self) -> list[str]:
        """All registered type ids."""
        return list(self._parents)

    def parent(self, type_id: str) -> str | None:
        """Direct parent of ``type_id`` (``None`` for roots)."""
        self._require_type(type_id)
        return self._parents[type_id]

    def ancestors(self, type_id: str) -> list[str]:
        """Ancestors of ``type_id`` from direct parent to root (exclusive)."""
        self._require_type(type_id)
        chain: list[str] = []
        current = self._parents[type_id]
        while current is not None:
            chain.append(current)
            current = self._parents[current]
        return chain

    # -- predicates ---------------------------------------------------------

    def add_predicate(self, schema: PredicateSchema) -> None:
        """Register a predicate schema (domain/range types must exist)."""
        if schema.predicate in self._schemas:
            raise OntologyError(f"predicate {schema.predicate!r} already registered")
        self._require_type(schema.domain)
        if schema.range_type is not None:
            self._require_type(schema.range_type)
        self._schemas[schema.predicate] = schema

    def has_predicate(self, predicate: str) -> bool:
        """True if ``predicate`` has a registered schema."""
        return predicate in self._schemas

    def schema(self, predicate: str) -> PredicateSchema:
        """Schema of ``predicate`` (raises for unknown predicates)."""
        try:
            return self._schemas[predicate]
        except KeyError:
            raise OntologyError(f"unknown predicate {predicate!r}") from None

    def predicates(self) -> list[str]:
        """All registered predicate ids."""
        return list(self._schemas)

    def volatile_predicates(self) -> set[str]:
        """Predicates whose values drift over time (staleness targets, §4)."""
        return {p for p, s in self._schemas.items() if s.volatile}

    def expected_predicates(self, type_id: str) -> set[str]:
        """Predicates profiling expects on entities of ``type_id``.

        Includes expectations declared on any ancestor type, so a
        ``basketball_player`` inherits ``date_of_birth`` expected on
        ``person``.
        """
        self._require_type(type_id)
        lineage = [type_id, *self.ancestors(type_id)]
        return {
            schema.predicate
            for schema in self._schemas.values()
            if schema.expected and schema.domain in lineage
        }

    # -- internals ----------------------------------------------------------

    def _require_type(self, type_id: str) -> None:
        if type_id not in self._parents:
            raise OntologyError(f"unknown type {type_id!r}")
